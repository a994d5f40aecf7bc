// Cross-module integration scenarios that tie physics together end to
// end: Peierls diamagnetic current, delta-kick spectroscopy vs the
// orbital spectrum, and NN energy prediction on held-out lattice physics.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/analysis/spectrum.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/lfd/domain.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/nnq/train.hpp"

namespace {

using namespace mlmd;

TEST(Integration, PeierlsDiamagneticCurrent) {
  // A stationary state in a constant vector potential carries the
  // diamagnetic current j ~ -rho_bar * A / c (to leading order in A):
  // the Peierls-phased stencil must reproduce it.
  grid::Grid3 g{8, 8, 8, 0.6, 0.6, 0.6};
  lfd::LfdOptions opt;
  opt.init_relax_steps = 40;
  lfd::LfdDomain<double> dom(g, 2, opt);
  dom.initialize({{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.5, 2.0}}, 1);

  const double a_val = 0.5;
  const double a[3] = {0.0, a_val, 0.0};
  const auto j = dom.current(a);
  // Mean density = electrons / volume.
  const double rho_bar = 2.0 / g.volume();
  const double expect = -rho_bar * std::sin(a_val * g.hy / units::c_light) / g.hy;
  // Lattice form: j_dia = -rho sin(A h / c)/h ~ -rho A/c.
  EXPECT_NEAR(j[1], expect, 0.15 * std::abs(expect));
  // No transverse components.
  EXPECT_NEAR(j[0], 0.0, 0.1 * std::abs(expect));
}

TEST(Integration, DeltaKickPeakMatchesOrbitalGap) {
  // The absorption spectrum of a kicked domain peaks at transition
  // energies between occupied and unoccupied adiabatic orbitals.
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  lfd::LfdOptions opt;
  opt.dt_qd = 0.08;
  opt.nlp_every = 0;
  opt.self_consistent = false; // frozen potential: clean linear response
  opt.init_relax_steps = 60;
  lfd::LfdDomain<double> dom(g, 4, opt);
  dom.initialize({{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.6, 2.0}}, 2);

  const double zero_a[3] = {0, 0, 0};
  auto bands = dom.diagonalize_subspace(zero_a);

  // Kick along y and record the dipole.
  const double kick = 1e-3;
  auto& w = dom.wave();
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z) {
        const std::complex<double> ph(std::cos(kick * y * g.hy),
                                      std::sin(kick * y * g.hy));
        for (std::size_t s = 0; s < 4; ++s) w.at(g.index(x, y, z), s) *= ph;
      }
  std::vector<double> dipole;
  for (int s = 0; s < 1600; ++s) {
    dom.qd_step(zero_a);
    dipole.push_back(dom.dipole()[1]);
  }
  auto spec = analysis::absorption_spectrum(dipole, opt.dt_qd);
  const double peak = analysis::dominant_frequency(spec);

  // The peak must sit near SOME occupied->unoccupied gap (which gap
  // dominates depends on dipole selection weights). Tolerance is set by
  // the spectral resolution: a T = 128 a.u. window with a Hann taper
  // broadens lines by ~2 * 2pi/T ~ 0.1 a.u. (~14% of the peak here).
  double best = 1e9;
  for (int occ = 0; occ < 2; ++occ)
    for (int un = 2; un < 4; ++un)
      best = std::min(best, std::abs(bands[static_cast<std::size_t>(un)] -
                                     bands[static_cast<std::size_t>(occ)] - peak));
  EXPECT_LT(best, 0.25 * peak) << "peak at " << peak;
}

TEST(Integration, TrainedLatticeModelPredictsHeldOutEnergies) {
  // Train/test split of ONE equilibrium trajectory: a different seed
  // equilibrates into a different domain configuration (different feature
  // distribution), which would test extrapolation, not interpolation.
  auto all = nnq::sample_ferro_dataset(8, 8, 0.05, 40, 8, 0.0, 901);
  nnq::Dataset train(all.begin(), all.begin() + 32);
  nnq::Dataset test(all.begin() + 32, all.end());
  nnq::Mlp net({nnq::kLatticeFeatures, 20, 1}, 51);
  nnq::TrainOptions topt;
  topt.epochs = 150;
  nnq::train_energy(net, train, topt);

  // Energy-only training at this budget resolves the absolute per-site
  // energy scale, not the tiny within-trajectory fluctuations (~2% of the
  // scale); assert held-out predictions land within 15% of the scale.
  double mean = 0, ss_res = 0;
  for (const auto& s : test) {
    double pred = 0;
    for (const auto& f : s.features) pred += net.value(f);
    const double ns = static_cast<double>(s.features.size());
    ss_res += std::pow((pred - s.energy) / ns, 2);
    mean += s.energy / ns;
  }
  mean /= static_cast<double>(test.size());
  const double rmse = std::sqrt(ss_res / static_cast<double>(test.size()));
  EXPECT_LT(rmse, 0.15 * std::abs(mean));
}

} // namespace
