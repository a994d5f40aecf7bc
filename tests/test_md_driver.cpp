// Tests for the atomistic NNQMD MD driver, the LJ dataset factory, the
// atoms->polarization bridge, and the loss-sharpness metric.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/nnq/md_driver.hpp"
#include "mlmd/nnq/optimizer.hpp"
#include "mlmd/topo/polarization.hpp"
#include "mlmd/topo/topology.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::nnq;

AtomModel small_model(unsigned long long seed = 99) {
  return AtomModel(RadialBasis::make(5, 1.5, 6.5, 1.2), {12, 8}, seed);
}

qxmd::Atoms jittered_lattice(std::size_t n, double a0, unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(n, n, n, a0, 200.0);
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.1 * rng.normal();
  return atoms;
}

TEST(NnqmdDriver, NveConservesEnergy) {
  // Any NN potential is conservative by construction; NVE with it must
  // conserve total energy.
  auto model = small_model();
  auto atoms = jittered_lattice(3, 4.5, 1);
  qxmd::thermalize(atoms, 0.002, 2);
  MdOptions opt;
  opt.dt = 5.0;
  opt.rebuild_every = 5;
  NnqmdDriver driver(model, nullptr, atoms, opt);
  const double e0 = driver.total_energy();
  for (int s = 0; s < 80; ++s) driver.step();
  // Bounded Verlet oscillation only: the skinned neighbor list makes the
  // potential exactly continuous across rebuilds.
  EXPECT_NEAR(driver.total_energy(), e0, 1e-2 * std::abs(e0));
}

TEST(NnqmdDriver, LangevinThermalizes) {
  auto model = small_model();
  auto atoms = jittered_lattice(3, 4.5, 3);
  MdOptions opt;
  opt.dt = 8.0;
  opt.langevin_kt = 0.004;
  opt.langevin_gamma = 0.01;
  NnqmdDriver driver(model, nullptr, atoms, opt);
  double t_avg = 0;
  int count = 0;
  for (int s = 0; s < 300; ++s) {
    driver.step();
    if (s >= 100) {
      t_avg += driver.atoms().temperature();
      ++count;
    }
  }
  EXPECT_NEAR(t_avg / count, 0.004, 0.0015);
}

TEST(NnqmdDriver, MixingChangesForces) {
  auto gs = small_model(7);
  auto xs = small_model(8);
  auto atoms = jittered_lattice(2, 4.5, 4);
  MdOptions opt;
  opt.n_sat = 1.0;
  NnqmdDriver dark(gs, &xs, atoms, opt);
  NnqmdDriver lit(gs, &xs, atoms, opt);
  dark.step(0.0);
  lit.step(5.0); // saturated: pure XS forces
  bool differ = false;
  for (std::size_t i = 0; i < dark.forces().size(); ++i)
    if (std::abs(dark.forces()[i] - lit.forces()[i]) > 1e-12) differ = true;
  EXPECT_TRUE(differ);
}

TEST(NnqmdDriver, RecordsVelocityFrames) {
  auto model = small_model();
  auto atoms = jittered_lattice(2, 4.5, 5);
  NnqmdDriver driver(model, nullptr, atoms, {});
  std::vector<std::vector<double>> frames;
  driver.record_velocities(&frames);
  for (int s = 0; s < 10; ++s) driver.step();
  ASSERT_EQ(frames.size(), 10u);
  EXPECT_EQ(frames[0].size(), 3 * atoms.n());
}

TEST(LjDataset, ShapesAndLabels) {
  auto base = qxmd::make_cubic_lattice(3, 3, 3, 4.5, 200.0);
  auto basis = RadialBasis::make(5, 1.5, 6.5, 1.2);
  qxmd::LjParams lj;
  lj.rc = 8.0;
  auto data = make_lj_dataset(base, basis, lj, 6, 0.15, 11);
  ASSERT_EQ(data.size(), 6u);
  for (const auto& s : data) {
    EXPECT_EQ(s.features.size(), base.n());
    EXPECT_EQ(s.features[0].size(), basis.size());
    EXPECT_TRUE(std::isfinite(s.energy));
  }
  // Different jitters -> different energies.
  EXPECT_NE(data[0].energy, data[1].energy);
}

TEST(LjDataset, TrainedModelPredictsHeldOutEnergies) {
  auto base = qxmd::make_cubic_lattice(3, 3, 3, 4.6, 200.0);
  auto basis = RadialBasis::make(8, 1.5, 7.0, 1.0);
  qxmd::LjParams lj;
  lj.rc = 8.0;
  auto train_data = make_lj_dataset(base, basis, lj, 30, 0.12, 21);
  auto test_data = make_lj_dataset(base, basis, lj, 8, 0.12, 22);

  Mlp net({basis.size(), 24, 16, 1}, 31);
  TrainOptions topt;
  topt.epochs = 150;
  topt.lr = 2e-3;
  train_energy(net, train_data, topt);

  const double mse_test = energy_mse(net, test_data);
  // Per-site energy scale of the dataset for normalization.
  double scale = 0.0;
  for (const auto& s : test_data)
    scale += std::abs(s.energy) / static_cast<double>(s.features.size());
  scale /= static_cast<double>(test_data.size());
  EXPECT_LT(std::sqrt(mse_test), 0.25 * scale + 1e-6);
}

TEST(Sharpness, SamTrainingFlattensLossSurface) {
  auto data = sample_ferro_dataset(8, 8, 0.05, 16, 6, 0.0, 33);
  Mlp plain({kLatticeFeatures, 20, 1}, 41);
  Mlp sam = plain;
  TrainOptions topt;
  topt.epochs = 40;
  train_energy(plain, data, topt);
  topt.sam_rho = 0.1;
  train_energy(sam, data, topt);

  const double rho = 0.1;
  const double s_plain = loss_sharpness(plain, data, rho, 16, 5);
  const double s_sam = loss_sharpness(sam, data, rho, 16, 5);
  // SAM explicitly minimizes this quantity: allow noise but require the
  // SAM model not be substantially sharper.
  EXPECT_LT(s_sam, 2.0 * s_plain + 1e-9);
}

TEST(Polarization, UniformShiftBinsCorrectly) {
  auto atoms = qxmd::make_cubic_lattice(4, 4, 2, 3.0, 100.0);
  auto r_ref = atoms.r;
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.pos(i)[2] += 0.4;
  auto field = topo::polarization_from_atoms(atoms, r_ref, 4, 4);
  ASSERT_EQ(field.size(), 16u);
  for (const auto& u : field) {
    EXPECT_NEAR(u[0], 0.0, 1e-12);
    EXPECT_NEAR(u[2], 0.4, 1e-12);
  }
}

TEST(Polarization, SkyrmionTextureSurvivesBinning) {
  // Paint a skyrmion into a lattice, displace atoms accordingly, re-bin,
  // and check the topological charge survives the atoms round trip.
  ferro::FerroLattice lat(16, 16);
  topo::init_uniform(lat, +1.0);
  topo::paint_skyrmion(lat, 8, 8, 3.0, lat.well_amplitude(), +1);
  const double q_direct = topo::topological_charge(lat);

  auto atoms = qxmd::make_cubic_lattice(16, 16, 1, 3.0, 100.0);
  auto r_ref = atoms.r;
  for (std::size_t x = 0; x < 16; ++x)
    for (std::size_t y = 0; y < 16; ++y) {
      const std::size_t i = (x * 16 + y) * 1;
      const auto u = lat.u(x, y);
      for (int k = 0; k < 3; ++k)
        atoms.pos(i)[k] = r_ref[3 * i + static_cast<std::size_t>(k)] +
                          0.3 * u[static_cast<std::size_t>(k)];
    }
  ferro::FerroLattice rebinned(16, 16);
  rebinned.set_u_cells(topo::polarization_from_atoms(atoms, r_ref, 16, 16));
  EXPECT_NEAR(topo::topological_charge(rebinned), q_direct, 0.1);
}

} // namespace
