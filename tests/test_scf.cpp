// Tests for the DC-DFT global-local SCF loop, Anderson mixing, and Fermi
// smearing.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/scf/dc_scf.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::scf;

std::vector<lfd::Ion> domain_center_ions(const grid::DcDecomposition& dec) {
  std::vector<lfd::Ion> ions;
  const auto& g = dec.global();
  for (int a = 0; a < dec.ndomains(); ++a) {
    const auto& d = dec.domain(a);
    ions.push_back({(static_cast<double>(d.core0[0]) + 0.5 * d.coreN[0]) * g.hx,
                    (static_cast<double>(d.core0[1]) + 0.5 * d.coreN[1]) * g.hy,
                    (static_cast<double>(d.core0[2]) + 0.5 * d.coreN[2]) * g.hz,
                    2.5, 1.5, 2.0});
  }
  return ions;
}

TEST(DcScf, ConvergesOnSingleDomain) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  ScfOptions opt;
  opt.norb = 3;
  opt.nfilled = 1;
  opt.max_outer = 30;
  opt.tol = 1e-4;
  DcScf scf(dec, domain_center_ions(dec), opt);
  auto res = scf.run();
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.density_residual, 1e-4);
}

TEST(DcScf, DensityIntegratesToElectronCount) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  ScfOptions opt;
  opt.norb = 3;
  opt.nfilled = 2;
  opt.max_outer = 20;
  opt.tol = 1e-4;
  DcScf scf(dec, domain_center_ions(dec), opt);
  auto res = scf.run();
  double nel = 0;
  for (double v : scf.global_density()) nel += v;
  nel *= g.dv();
  // Mixing leaves the stored density one mixing step behind convergence;
  // at convergence it carries 2*nfilled electrons per domain.
  EXPECT_NEAR(nel, 4.0, 0.2);
  (void)res;
}

TEST(DcScf, BandEnergiesOrderedPerDomain) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  ScfOptions opt;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.max_outer = 15;
  DcScf scf(dec, domain_center_ions(dec), opt);
  auto res = scf.run();
  ASSERT_EQ(res.band_energies.size(), 4u);
  // Imaginary-time relaxation orders orbitals by energy (approximately).
  EXPECT_LE(res.band_energies[0], res.band_energies[3] + 0.05);
}

TEST(DcScf, MultiDomainConverges) {
  grid::Grid3 g{16, 16, 16, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 2, 2, 2, 2);
  ScfOptions opt;
  opt.norb = 2;
  opt.nfilled = 1;
  opt.local_iters = 12;
  opt.max_outer = 60;
  opt.mix = 0.3; // gentler mixing: overlapping domains feed back density
  opt.tol = 2e-3;
  DcScf scf(dec, domain_center_ions(dec), opt);
  auto res = scf.run();
  EXPECT_TRUE(res.converged);
  // 8 domains x 2 electrons.
  double nel = 0;
  for (double v : scf.global_density()) nel += v;
  nel *= g.dv();
  EXPECT_NEAR(nel, 16.0, 1.5);
}

TEST(DcScf, BoundStatesHaveNegativeEnergy) {
  // A deep well must bind the lowest orbital (band energy < 0).
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 5.0, 2.0, 2.0}};
  ScfOptions opt;
  opt.norb = 2;
  opt.nfilled = 1;
  opt.max_outer = 25;
  opt.use_xc = false;
  DcScf scf(dec, ions, opt);
  auto res = scf.run();
  EXPECT_LT(res.band_energies[0], 0.0);
}

// --- Anderson mixing ------------------------------------------------------------

TEST(Anderson, ConvergesNoSlowerThanLinear) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.5, 2.0}};
  scf::ScfOptions opt;
  opt.norb = 3;
  opt.nfilled = 1;
  opt.mix = 0.5;
  opt.tol = 1e-4;
  opt.max_outer = 60;

  scf::DcScf linear(dec, ions, opt);
  auto r_lin = linear.run();

  opt.anderson = true;
  scf::DcScf accel(dec, ions, opt);
  auto r_and = accel.run();

  EXPECT_TRUE(r_and.converged);
  ASSERT_TRUE(r_lin.converged);
  EXPECT_LE(r_and.outer_iters, r_lin.outer_iters);
}

// --- Fermi smearing ---------------------------------------------------------------

TEST(ScfSmearing, ConvergesAndReportsFreeEnergy) {
  grid::Grid3 g{12, 12, 12, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, 1, 1, 1, 0);
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.5, 2.0}};
  scf::ScfOptions opt;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.max_outer = 60;
  opt.tol = 2e-3;
  opt.anderson = true;

  scf::DcScf cold(dec, ions, opt);
  auto r_cold = cold.run();
  ASSERT_TRUE(r_cold.converged);

  opt.electronic_kt = 0.02;
  scf::DcScf warm(dec, ions, opt);
  auto r_warm = warm.run();
  EXPECT_TRUE(r_warm.converged);
  // The Mermin free energy includes -TS < 0 and smeared band occupation:
  // it must not exceed the cold band sum by more than the smearing scale.
  EXPECT_LT(r_warm.total_energy, r_cold.total_energy + 0.5);
}

} // namespace
