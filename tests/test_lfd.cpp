// Tests for the LFD module: unitarity and correctness of the kin_prop
// ladder, vloc phases, GEMMified nonlocal correction, observables, the
// DSA Hartree updater, the LfdDomain shadow-dynamics contract, Fermi
// occupations (standalone and in LfdDomain), fourth-order propagation,
// and subspace diagonalization.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <numeric>
#include <string>
#include <tuple>

#include "mlmd/la/matrix.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/domain.hpp"
#include "mlmd/lfd/dsa.hpp"
#include "mlmd/lfd/fermi.hpp"
#include "mlmd/lfd/hamiltonian.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/lfd/wavefunction.hpp"
#include "mlmd/simd/simd.hpp"
#include "simd_targets.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::lfd;

grid::Grid3 small_grid() { return {8, 8, 8, 0.6, 0.6, 0.6}; }

std::vector<lfd::Ion> center_ion(const grid::Grid3& g) {
  return {{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.5, 2.0}};
}

double max_norm_deviation(const SoAWave<double>& w) {
  auto n = w.norms2();
  double dev = 0;
  for (double v : n) dev = std::max(dev, std::abs(v - 1.0));
  return dev;
}

TEST(Wavefunction, PlaneWavesAreOrthonormal) {
  SoAWave<double> w(small_grid(), 6);
  init_plane_waves(w);
  auto n = w.norms2();
  for (double v : n) EXPECT_NEAR(v, 1.0, 1e-9);
  // Distinct plane waves orthogonal.
  std::complex<double> overlap{};
  for (std::size_t g = 0; g < w.grid.size(); ++g)
    overlap += std::conj(w.at(g, 0)) * w.at(g, 1);
  EXPECT_NEAR(std::abs(overlap) * w.grid.dv(), 0.0, 1e-9);
}

TEST(Wavefunction, GaussianPacketNormalized) {
  SoAWave<double> w(small_grid(), 1);
  set_gaussian_packet(w, 0, 0.5, 0.5, 0.5, 1.0, 0.5, 0.0, 0.0);
  EXPECT_NEAR(w.norms2()[0], 1.0, 1e-9);
}

TEST(Wavefunction, LayoutRoundTrip) {
  SoAWave<float> w(small_grid(), 3);
  init_plane_waves(w);
  auto back = to_soa(to_aos(w));
  EXPECT_EQ(back.psi, w.psi);
}

TEST(Wavefunction, PrecisionConversion) {
  SoAWave<double> w(small_grid(), 2);
  init_plane_waves(w);
  auto f = convert<float>(w);
  auto d2 = convert<double>(f);
  for (std::size_t i = 0; i < w.psi.size(); ++i)
    EXPECT_NEAR(std::abs(d2.psi.data()[i] - w.psi.data()[i]), 0.0, 1e-6);
}

// --- kin_prop ---------------------------------------------------------------
//
// Each variant runs under every simd dispatch target (unsupported ISAs
// skip), so the rotate/phase stencil kernels are validated per ISA, not
// just for whichever target the host resolves by default.

class KinVariantSweep
    : public ::testing::TestWithParam<std::tuple<KinVariant, mlmd::simd::Target>> {
protected:
  void SetUp() override {
    prev_ = mlmd::simd::active_target();
    const auto t = std::get<1>(GetParam());
    if (!mlmd::simd::target_supported(t))
      GTEST_SKIP() << "simd target '" << mlmd::simd::target_name(t)
                   << "' not supported on this host/build";
    mlmd::simd::set_target(t);
  }
  void TearDown() override { mlmd::simd::set_target(prev_); }
  KinVariant variant() const { return std::get<0>(GetParam()); }

private:
  mlmd::simd::Target prev_ = mlmd::simd::Target::kScalar;
};

TEST_P(KinVariantSweep, ExactlyUnitary) {
  SoAWave<double> w(small_grid(), 4);
  init_plane_waves(w);
  KinParams p;
  p.dt = 0.05;
  p.a[0] = 0.3; // vector potential on: Peierls phases exercised
  for (int i = 0; i < 20; ++i) kin_prop(w, p, variant());
  EXPECT_LT(max_norm_deviation(w), 1e-10);
}

TEST_P(KinVariantSweep, AgreesWithBaseline) {
  SoAWave<double> w_ref(small_grid(), 5), w(small_grid(), 5);
  init_plane_waves(w_ref);
  w.psi = w_ref.psi;
  KinParams p;
  p.dt = 0.03;
  p.a[1] = 0.2;
  kin_prop(w_ref, p, KinVariant::kBaseline);
  kin_prop(w, p, variant());
  EXPECT_LT(la::max_abs_diff(w.psi, w_ref.psi), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KinVariantSweep,
    ::testing::Combine(::testing::Values(KinVariant::kReordered,
                                         KinVariant::kBlocked,
                                         KinVariant::kParallel),
                       ::testing::ValuesIn(mlmd::testing::kAllSimdTargets)),
    [](const auto& info) {
      return "variant" + std::to_string(info.index) + "_" +
             mlmd::simd::target_name(std::get<1>(info.param));
    });

TEST(KinProp, OddGridThrows) {
  grid::Grid3 g{7, 8, 8, 0.5, 0.5, 0.5};
  SoAWave<double> w(g, 1);
  KinParams p;
  p.dt = 0.05;
  EXPECT_THROW(kin_prop(w, p), std::invalid_argument);
}

TEST(KinProp, ConstantOrbitalGetsOnlyDiagonalPhase) {
  // The k=0 plane wave is an eigenstate of the hopping terms with
  // eigenvalue 2t per axis; total kinetic eigenvalue is 0 (diag + 2t = 0).
  SoAWave<double> w(small_grid(), 1);
  const double amp = 1.0 / std::sqrt(w.grid.volume());
  for (std::size_t g = 0; g < w.grid.size(); ++g) w.at(g, 0) = amp;
  KinParams p;
  p.dt = 0.1;
  kin_prop(w, p, KinVariant::kReordered);
  // E(k=0) = 0 exactly on the lattice: state unchanged.
  for (std::size_t g = 0; g < w.grid.size(); ++g) {
    EXPECT_NEAR(w.at(g, 0).real(), amp, 1e-12);
    EXPECT_NEAR(w.at(g, 0).imag(), 0.0, 1e-12);
  }
}

TEST(KinProp, PlaneWavePhaseMatchesLatticeDispersion) {
  // A kx = 2pi/L plane wave is an exact eigenstate of the Trotterized
  // kinetic operator when the split terms commute on it; accumulate many
  // small steps and compare the phase with the lattice dispersion
  // E(k) = (1 - cos(k h)) / h^2.
  grid::Grid3 g{16, 4, 4, 0.5, 0.8, 0.8};
  SoAWave<double> w(g, 2);
  init_plane_waves(w);
  // orbital 1 has k = (0, 0, ...) ordering from shells; build explicitly:
  const double k = 2.0 * std::numbers::pi / g.lx();
  const double amp = 1.0 / std::sqrt(g.volume());
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z)
        w.at(g.index(x, y, z), 0) =
            amp * std::complex<double>(std::cos(k * x * g.hx),
                                       std::sin(k * x * g.hx));
  const std::complex<double> before = w.at(g.index(3, 0, 0), 0);

  KinParams p;
  p.dt = 0.002;
  const int steps = 100;
  for (int i = 0; i < steps; ++i) kin_prop(w, p, KinVariant::kReordered);

  const double e_lattice = (1.0 - std::cos(k * g.hx)) / (g.hx * g.hx);
  const std::complex<double> expect =
      before * std::exp(std::complex<double>(0.0, -e_lattice * p.dt * steps));
  // Tolerance dominated by the O(dt^2) Trotter splitting error.
  EXPECT_NEAR(std::abs(w.at(g.index(3, 0, 0), 0) - expect), 0.0, 5e-4);
}

TEST(KinProp, KineticEnergyMatchesLatticeDispersion) {
  grid::Grid3 g{16, 4, 4, 0.5, 0.8, 0.8};
  SoAWave<double> w(g, 1);
  const double k = 2.0 * std::numbers::pi / g.lx();
  const double amp = 1.0 / std::sqrt(g.volume());
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z)
        w.at(g.index(x, y, z), 0) =
            amp * std::complex<double>(std::cos(k * x * g.hx),
                                       std::sin(k * x * g.hx));
  const double zero_a[3] = {0, 0, 0};
  const double e = kinetic_energy(w, 0, zero_a);
  EXPECT_NEAR(e, (1.0 - std::cos(k * g.hx)) / (g.hx * g.hx), 1e-9);
}

TEST(KinProp, FloatVariantTracksDouble) {
  SoAWave<double> wd(small_grid(), 3);
  init_plane_waves(wd);
  auto wf = convert<float>(wd);
  KinParams p;
  p.dt = 0.05;
  for (int i = 0; i < 10; ++i) {
    kin_prop(wd, p, KinVariant::kParallel);
    kin_prop(wf, p, KinVariant::kParallel);
  }
  double dev = 0;
  for (std::size_t i = 0; i < wd.psi.size(); ++i)
    dev = std::max(dev, std::abs(std::complex<double>(wf.psi.data()[i]) -
                                 wd.psi.data()[i]));
  EXPECT_LT(dev, 1e-4);
}

// --- vloc -------------------------------------------------------------------

class VlocTargets : public mlmd::testing::SimdTargetTest {};

TEST_P(VlocTargets, PhaseIsExactlyUnitary) {
  SoAWave<double> w(small_grid(), 3);
  init_plane_waves(w);
  std::vector<double> v(w.grid.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::sin(0.37 * i);
  vloc_prop(w, v, 0.2);
  EXPECT_LT(max_norm_deviation(w), 1e-12);
}

TEST_P(VlocTargets, ConstantPotentialGlobalPhase) {
  SoAWave<double> w(small_grid(), 1);
  init_plane_waves(w);
  auto before = w.psi;
  std::vector<double> v(w.grid.size(), 2.0);
  const double dt = 0.1;
  vloc_prop(w, v, dt);
  const std::complex<double> ph(std::cos(-dt * 2.0), std::sin(-dt * 2.0));
  for (std::size_t i = 0; i < w.psi.size(); ++i)
    EXPECT_NEAR(std::abs(w.psi.data()[i] - ph * before.data()[i]), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Targets, VlocTargets,
                         ::testing::ValuesIn(mlmd::testing::kAllSimdTargets),
                         mlmd::testing::SimdTargetName{});

TEST(Vloc, IonicPotentialAttractiveAndPeriodic) {
  auto g = small_grid();
  std::vector<Ion> ions = {{0.0, 0.0, 0.0, 3.0, 1.0, 2.0}};
  auto v = ionic_potential(g, ions);
  // Minimum at the ion; equal at periodic images (0,0,0) wrapping.
  EXPECT_NEAR(v[g.index(0, 0, 0)], -3.0, 1e-9);
  EXPECT_LT(v[g.index(0, 0, 0)], v[g.index(4, 4, 4)]);
  // Symmetry across the boundary: +1 and -1 (wrapped) equidistant.
  EXPECT_NEAR(v[g.index(1, 0, 0)], v[g.index(7, 0, 0)], 1e-12);
}

TEST(Vloc, XcPotentialNegativeAndMonotonic) {
  std::vector<double> rho = {0.0, 0.1, 1.0, 8.0};
  std::vector<double> v(4, 0.0);
  add_xc_potential(rho, v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_LT(v[3], v[2]);
  EXPECT_LT(v[2], v[1]);
  // Slater exchange: v(8)/v(1) = 2.
  EXPECT_NEAR(v[3] / v[2], 2.0, 1e-12);
}

TEST(Vloc, IonForcePullsTowardDensity) {
  auto g = small_grid();
  // Density blob left of the ion: force should point toward the blob (-x).
  std::vector<double> rho(g.size(), 0.0);
  rho[g.index(2, 4, 4)] = 1.0;
  Ion ion{4 * g.hx, 4 * g.hy, 4 * g.hz, 2.0, 1.5, 2.0};
  auto f = ion_force(g, rho, ion);
  EXPECT_LT(f[0], 0.0);
  EXPECT_NEAR(f[1], 0.0, 1e-12);
  EXPECT_NEAR(f[2], 0.0, 1e-12);
}

TEST(Vloc, IonForceMatchesEnergyGradient) {
  auto g = small_grid();
  std::vector<double> rho(g.size());
  for (std::size_t i = 0; i < rho.size(); ++i) rho[i] = 0.01 * ((i * 37) % 11);
  Ion ion{2.1, 2.3, 2.7, 1.5, 1.2, 2.0};
  auto f = ion_force(g, rho, ion);
  // E(R) = sum rho * V_ion(R) dv; central difference in x.
  const double eps = 1e-5;
  auto energy_at = [&](double x) {
    Ion moved = ion;
    moved.x = x;
    auto v = ionic_potential(g, {moved});
    double e = 0;
    for (std::size_t i = 0; i < v.size(); ++i) e += rho[i] * v[i];
    return e * g.dv();
  };
  const double dEdx = (energy_at(ion.x + eps) - energy_at(ion.x - eps)) / (2 * eps);
  EXPECT_NEAR(f[0], -dEdx, 1e-6);
}

// --- observables ------------------------------------------------------------

TEST(Density, IntegratesToElectronCount) {
  SoAWave<double> w(small_grid(), 4);
  init_plane_waves(w);
  std::vector<double> f = {2.0, 2.0, 1.0, 0.0};
  auto rho = density(w, f);
  double total = 0;
  for (double v : rho) total += v;
  EXPECT_NEAR(total * w.grid.dv(), 5.0, 1e-9);
}

TEST(Density, NonNegative) {
  SoAWave<double> w(small_grid(), 2);
  init_plane_waves(w);
  std::vector<double> f = {2.0, 2.0};
  for (double v : density(w, f)) EXPECT_GE(v, 0.0);
}

TEST(Current, ZeroForRealWavefunction) {
  SoAWave<double> w(small_grid(), 1);
  set_gaussian_packet(w, 0, 0.5, 0.5, 0.5, 1.0, 0.0, 0.0, 0.0);
  std::vector<double> f = {2.0};
  const double a[3] = {0, 0, 0};
  auto j = macroscopic_current(w, f, a);
  EXPECT_NEAR(j[0], 0.0, 1e-10);
  EXPECT_NEAR(j[1], 0.0, 1e-10);
  EXPECT_NEAR(j[2], 0.0, 1e-10);
}

TEST(Current, PlaneWaveCarriesCurrent) {
  grid::Grid3 g{16, 4, 4, 0.5, 0.8, 0.8};
  SoAWave<double> w(g, 1);
  const double k = 2.0 * std::numbers::pi / g.lx();
  const double amp = 1.0 / std::sqrt(g.volume());
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z)
        w.at(g.index(x, y, z), 0) =
            amp * std::complex<double>(std::cos(k * x * g.hx),
                                       std::sin(k * x * g.hx));
  std::vector<double> f = {1.0};
  const double a[3] = {0, 0, 0};
  auto j = macroscopic_current(w, f, a);
  // j = k_lattice / V with lattice velocity sin(kh)/h.
  EXPECT_NEAR(j[0], std::sin(k * g.hx) / g.hx / g.volume(), 1e-9);
}

TEST(Excitation, CountsPromotions) {
  std::vector<double> f0 = {2.0, 2.0, 0.0, 0.0};
  std::vector<double> f = {1.5, 1.9, 0.4, 0.2};
  EXPECT_NEAR(excitation_number(f0, f), 0.6, 1e-12);
}

// --- nlp_prop ---------------------------------------------------------------

TEST(NlpProp, PreservesNorms) {
  SoAWave<float> w(small_grid(), 4);
  init_plane_waves(w);
  auto psi0 = w.psi;
  for (int i = 0; i < 5; ++i)
    nlp_prop(w, psi0, std::complex<double>(0.0, -0.05));
  auto n = w.norms2();
  for (double v : n) EXPECT_NEAR(v, 1.0, 1e-5);
}

TEST(NlpProp, ZeroDeltaIsIdentityUpToRenorm) {
  SoAWave<float> w(small_grid(), 3);
  init_plane_waves(w);
  auto before = w.psi;
  nlp_prop(w, before, std::complex<double>(0.0, 0.0));
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-5);
}

TEST(NlpProp, Bf16ModeCloseToNative) {
  SoAWave<float> wa(small_grid(), 4), wb(small_grid(), 4);
  init_plane_waves(wa);
  wb.psi = wa.psi;
  auto psi0 = wa.psi;
  nlp_prop(wa, psi0, std::complex<double>(0.0, -0.05), la::ComputeMode::kNative);
  nlp_prop(wb, psi0, std::complex<double>(0.0, -0.05), la::ComputeMode::kBF16);
  // Perturbative correction: BF16 error stays far below the correction.
  EXPECT_LT(la::max_abs_diff(wa.psi, wb.psi), 2e-3);
}

TEST(NlpProp, DoubleRejectsBf16) {
  SoAWave<double> w(small_grid(), 2);
  init_plane_waves(w);
  auto psi0 = w.psi;
  EXPECT_THROW(nlp_prop(w, psi0, std::complex<double>(0, -0.01),
                        la::ComputeMode::kBF16),
               std::invalid_argument);
}

// --- hamiltonian ------------------------------------------------------------

TEST(Hamiltonian, OrbitalMatrixHermitian) {
  SoAWave<double> w(small_grid(), 4);
  init_plane_waves(w);
  std::vector<double> v(w.grid.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.1 * std::cos(0.2 * i);
  const double a[3] = {0.1, 0.0, 0.2};
  auto h = orbital_hamiltonian(w, v, a);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(std::abs(h(i, j) - std::conj(h(j, i))), 0.0, 1e-9);
}

TEST(Hamiltonian, TotalEnergyMatchesParts) {
  SoAWave<double> w(small_grid(), 2);
  init_plane_waves(w);
  std::vector<double> v(w.grid.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.05 * ((i * 13) % 7);
  std::vector<double> f = {2.0, 1.0};
  const double a[3] = {0, 0, 0};
  const double e = total_energy(w, f, v, a);
  double expect = potential_energy(w, f, v);
  for (std::size_t s = 0; s < 2; ++s) expect += f[s] * kinetic_energy(w, s, a);
  EXPECT_NEAR(e, expect, 1e-8);
}

// --- DSA Hartree ------------------------------------------------------------

TEST(Dsa, SolveReachesSmallResidual) {
  auto g = small_grid();
  DsaHartree dsa(g);
  std::vector<double> rho(g.size());
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z)
        rho[g.index(x, y, z)] =
            std::cos(2.0 * std::numbers::pi * static_cast<double>(x) / g.nx);
  dsa.solve(rho);
  EXPECT_LT(dsa.relative_residual(rho), 1e-6);
}

TEST(Dsa, UpdateTracksSlowDensityDrift) {
  auto g = small_grid();
  DsaHartree dsa(g);
  std::vector<double> rho(g.size());
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z)
        rho[g.index(x, y, z)] =
            std::cos(2.0 * std::numbers::pi * static_cast<double>(x) / g.nx);
  dsa.solve(rho);
  // Drift the density slowly; the cheap updater must keep the residual
  // bounded well below the re-solve threshold.
  for (int step = 0; step < 50; ++step) {
    for (auto& v : rho) v *= 1.001;
    dsa.update(rho);
  }
  EXPECT_LT(dsa.relative_residual(rho), 0.3);
}

TEST(Dsa, EnergyPositiveForNonTrivialDensity) {
  auto g = small_grid();
  DsaHartree dsa(g);
  std::vector<double> rho(g.size(), 0.0);
  rho[g.index(4, 4, 4)] = 1.0;
  dsa.solve(rho);
  EXPECT_GT(dsa.energy(rho), 0.0);
}

// --- LfdDomain --------------------------------------------------------------

TEST(LfdDomain, InitializeSetsOccupationsAndNorms) {
  LfdOptions opt;
  LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize({{2.4, 2.4, 2.4, 2.0, 1.5, 2.0}}, 2);
  const auto& f = dom.occupations();
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
  EXPECT_LT(max_norm_deviation(dom.wave()), 1e-8);
  EXPECT_NEAR(dom.n_exc(), 0.0, 1e-10);
}

TEST(LfdDomain, PropagationConservesNormAndRoughlyEnergy) {
  LfdOptions opt;
  opt.dt_qd = 0.02;
  opt.hartree_every = 0; // static potential: energy must be conserved
  opt.nlp_every = 0;
  opt.self_consistent = false;
  LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize({{2.4, 2.4, 2.4, 2.0, 1.5, 2.0}}, 2);
  const double a[3] = {0, 0, 0};
  const double e0 = dom.energy(a);
  dom.run_qd(100, a);
  EXPECT_LT(max_norm_deviation(dom.wave()), 1e-9);
  // Unitary Trotter propagation: the measured energy oscillates within an
  // O(dt^2 ||[T,V]||) band around e0 but must not drift.
  EXPECT_NEAR(dom.energy(a), e0, 3e-2 * std::abs(e0) + 1e-3);
}

TEST(LfdDomain, ShadowExchangeContractSizes) {
  LfdOptions opt;
  LfdDomain<float> dom(small_grid(), 8, opt);
  dom.initialize({{2.4, 2.4, 2.4, 2.0, 1.5, 2.0}}, 4);
  // delta_f is N_orb doubles; wavefunction footprint is N_grid * N_orb
  // complex floats: the shadow payload must be >= N_grid/2 times smaller.
  auto df = dom.take_delta_occupations();
  const std::size_t shadow_bytes = df.size() * sizeof(double);
  const std::size_t psi_bytes = dom.wave().psi.size() * sizeof(std::complex<float>);
  EXPECT_GE(psi_bytes / shadow_bytes, dom.grid().size() / 2);
}

TEST(LfdDomain, DeltaVlocShiftsPotential) {
  LfdOptions opt;
  opt.self_consistent = false;
  LfdDomain<double> dom(small_grid(), 2, opt);
  dom.initialize({{2.4, 2.4, 2.4, 2.0, 1.5, 2.0}}, 1);
  const double v_before = dom.vloc()[0];
  std::vector<double> dv(dom.grid().size(), 0.25);
  dom.apply_delta_vloc(dv);
  EXPECT_NEAR(dom.vloc()[0], v_before + 0.25, 1e-12);
}

TEST(LfdDomain, VectorPotentialPumpsEnergy) {
  LfdOptions opt;
  opt.dt_qd = 0.05;
  opt.self_consistent = false;
  opt.nlp_every = 0;
  LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize({{2.4, 2.4, 2.4, 2.5, 1.5, 2.0}}, 2);
  const double zero[3] = {0, 0, 0};
  const double e0 = dom.energy(zero);
  // Oscillating A drives the system (simple monochromatic pump).
  for (int s = 0; s < 150; ++s) {
    double a[3] = {0.0, 0.8 * std::sin(0.3 * s * opt.dt_qd), 0.0};
    dom.qd_step(a);
  }
  EXPECT_GT(dom.energy(zero), e0 - 1e-9);
}

// --- Fermi occupations -----------------------------------------------------------

TEST(Fermi, CountExactAtFiniteTemperature) {
  std::vector<double> e = {-1.0, -0.5, -0.1, 0.3, 0.8};
  for (double nelec : {1.0, 3.0, 6.0, 9.5}) {
    auto r = lfd::fermi_occupations(e, nelec, 0.05);
    double total = 0;
    for (double f : r.f) {
      total += f;
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 2.0);
    }
    EXPECT_NEAR(total, nelec, 1e-8) << nelec;
  }
}

TEST(Fermi, ZeroTemperatureStep) {
  std::vector<double> e = {-1.0, -0.5, 0.0, 0.5};
  auto r = lfd::fermi_occupations(e, 4.0, 0.0);
  EXPECT_DOUBLE_EQ(r.f[0], 2.0);
  EXPECT_DOUBLE_EQ(r.f[1], 2.0);
  EXPECT_NEAR(r.f[2] + r.f[3], 0.0, 1e-9);
}

TEST(Fermi, DegenerateFrontierSharesFractionally) {
  std::vector<double> e = {-1.0, 0.0, 0.0, 1.0};
  auto r = lfd::fermi_occupations(e, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(r.f[0], 2.0);
  EXPECT_NEAR(r.f[1] + r.f[2], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.f[3], 0.0);
}

TEST(Fermi, SmearingBroadensWithTemperature) {
  std::vector<double> e = {-0.1, 0.1};
  auto cold = lfd::fermi_occupations(e, 2.0, 0.005);
  auto hot = lfd::fermi_occupations(e, 2.0, 0.2);
  // Hotter -> occupations closer to each other.
  EXPECT_LT(hot.f[0] - hot.f[1], cold.f[0] - cold.f[1]);
}

TEST(Fermi, EntropyNegativeAndVanishesAtFullOrEmpty) {
  EXPECT_NEAR(lfd::fermi_entropy_term({2.0, 0.0}, 0.1), 0.0, 1e-12);
  EXPECT_LT(lfd::fermi_entropy_term({1.0, 1.0}, 0.1), -1e-3);
}

TEST(Fermi, BadArgsThrow) {
  EXPECT_THROW(lfd::fermi_occupations({}, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(lfd::fermi_occupations({0.0}, 5.0, 0.1), std::invalid_argument);
}

TEST(Fermi, SpinlessChannel) {
  std::vector<double> e = {-1.0, 0.0, 1.0};
  auto r = lfd::fermi_occupations(e, 2.0, 0.01, /*f_max=*/1.0);
  EXPECT_NEAR(r.f[0], 1.0, 1e-6);
  EXPECT_NEAR(r.f[1], 1.0, 1e-6);
  EXPECT_NEAR(r.f[2], 0.0, 1e-6);
}

// --- LfdDomain extensions -------------------------------------------------------

TEST(LfdDomainFermi, SmearedOccupationsSumToElectronCount) {
  lfd::LfdOptions opt;
  opt.electronic_kt = 0.05;
  lfd::LfdDomain<double> dom(small_grid(), 6, opt);
  dom.initialize(center_ion(small_grid()), 3);
  const auto& f = dom.occupations();
  const double total = std::accumulate(f.begin(), f.end(), 0.0);
  EXPECT_NEAR(total, 6.0, 1e-8);
  // Smearing spreads weight beyond the lowest 3 orbitals.
  EXPECT_GT(f[3], 0.0);
  EXPECT_LT(f[0], 2.0);
  // n_exc reference is the smeared distribution: starts at zero.
  EXPECT_NEAR(dom.n_exc(), 0.0, 1e-8);
}

TEST(LfdDomainFermi, ColdLimitGivesIntegerFilling) {
  // At kT -> 0 the Fermi fill puts 2 electrons in each of the two
  // lowest-ENERGY orbitals (which need not be the lowest-index ones —
  // the relaxed set is not index-sorted by energy).
  lfd::LfdOptions opt;
  opt.electronic_kt = 1e-6;
  lfd::LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize(center_ion(small_grid()), 2);
  const auto& f = dom.occupations();
  int full = 0, empty = 0;
  for (double fs : f) {
    if (std::abs(fs - 2.0) < 1e-3) ++full;
    if (std::abs(fs) < 1e-3) ++empty;
  }
  EXPECT_EQ(full, 2);
  EXPECT_EQ(empty, 2);
}

TEST(LfdDomainProp, FourthOrderStepUnitaryAndMoreAccurate) {
  auto make = [&](lfd::PropOrder order, double dt) {
    lfd::LfdOptions opt;
    opt.prop_order = order;
    opt.dt_qd = dt;
    opt.self_consistent = false;
    opt.nlp_every = 0;
    lfd::LfdDomain<double> dom(small_grid(), 3, opt);
    dom.initialize(center_ion(small_grid()), 1);
    return dom;
  };
  // Reference: tiny steps.
  auto ref = make(lfd::PropOrder::kSecond, 0.4 / 256);
  const double a[3] = {0, 0, 0};
  ref.run_qd(256, a);

  auto s2 = make(lfd::PropOrder::kSecond, 0.4 / 8);
  s2.run_qd(8, a);
  auto s4 = make(lfd::PropOrder::kFourth, 0.4 / 8);
  s4.run_qd(8, a);

  const double e2 = la::max_abs_diff(s2.wave().psi, ref.wave().psi);
  const double e4 = la::max_abs_diff(s4.wave().psi, ref.wave().psi);
  EXPECT_LT(e4, 0.2 * e2);

  auto norms = s4.wave().norms2();
  for (double n : norms) EXPECT_NEAR(n, 1.0, 1e-9);
}

TEST(SubspaceDiag, HamiltonianDiagonalAfterRotation) {
  lfd::LfdOptions opt;
  lfd::LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize(center_ion(small_grid()), 2);
  const double a[3] = {0, 0, 0};
  auto bands = dom.diagonalize_subspace(a);
  ASSERT_EQ(bands.size(), 4u);
  for (std::size_t s = 1; s < 4; ++s) EXPECT_LE(bands[s - 1], bands[s] + 1e-10);

  auto h = lfd::orbital_hamiltonian(dom.wave(), dom.vloc(), a);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(h(i, i).real(), bands[i], 1e-7);
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_NEAR(std::abs(h(i, j)), 0.0, 1e-7) << i << "," << j;
      }
    }
  }
}

TEST(SubspaceDiag, ConservesTotalOccupationAndNorms) {
  lfd::LfdOptions opt;
  lfd::LfdDomain<double> dom(small_grid(), 4, opt);
  dom.initialize(center_ion(small_grid()), 2);
  const double total0 =
      std::accumulate(dom.occupations().begin(), dom.occupations().end(), 0.0);
  const double a[3] = {0, 0, 0};
  dom.diagonalize_subspace(a);
  EXPECT_NEAR(std::accumulate(dom.occupations().begin(), dom.occupations().end(),
                              0.0),
              total0, 1e-9);
  for (double n : dom.wave().norms2()) EXPECT_NEAR(n, 1.0, 1e-8);
}

// --- zero-step identities and potential superposition ---------------------------

TEST(ZeroStep, KinPropIdentity) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  lfd::SoAWave<double> w(g, 3);
  lfd::init_plane_waves(w);
  auto before = w.psi;
  lfd::KinParams p;
  p.dt = 0.0;
  lfd::kin_prop(w, p, lfd::KinVariant::kReordered);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
  lfd::kin_prop(w, p, lfd::KinVariant::kParallel);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
}

TEST(ZeroStep, VlocPropIdentity) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  lfd::SoAWave<double> w(g, 2);
  lfd::init_plane_waves(w);
  auto before = w.psi;
  std::vector<double> v(g.size(), 1.7);
  lfd::vloc_prop(w, v, 0.0);
  EXPECT_LT(la::max_abs_diff(w.psi, before), 1e-15);
}

TEST(IonicPotential, SuperpositionOfWells) {
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  lfd::Ion a{1.0, 1.0, 1.0, 2.0, 1.0, 2.0};
  lfd::Ion b{4.0, 4.0, 4.0, 1.0, 1.5, 2.0};
  auto va = lfd::ionic_potential(g, {a});
  auto vb = lfd::ionic_potential(g, {b});
  auto vab = lfd::ionic_potential(g, {a, b});
  for (std::size_t i = 0; i < vab.size(); ++i)
    EXPECT_NEAR(vab[i], va[i] + vb[i], 1e-12);
}

} // namespace
