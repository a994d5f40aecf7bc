// Tests for the second-principles ferroelectric effective Hamiltonian:
// analytic forces against numerical gradients (property sweep), well
// physics, excitation softening, and dynamics sanity.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/common/rng.hpp"
#include "mlmd/ferro/lattice.hpp"

namespace {

using namespace mlmd::ferro;

void randomize(FerroLattice& lat, unsigned long long seed, double amp = 0.5) {
  mlmd::Rng rng(seed);
  std::vector<Vec3> u(lat.ncells());
  for (auto& ui : u) ui = {amp * rng.normal(), amp * rng.normal(), amp * rng.normal()};
  lat.set_u_cells(u);
}

void fill(FerroLattice& lat, const Vec3& u) {
  lat.set_u_cells(std::vector<Vec3>(lat.ncells(), u));
}

TEST(Ferro, TooSmallThrows) {
  EXPECT_THROW(FerroLattice(1, 4), std::invalid_argument);
}

class FerroForceSweep : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(FerroForceSweep, ForcesAreMinusEnergyGradient) {
  FerroParams p;
  p.a0 = -0.8;
  p.b = 0.9;
  p.k = 0.3;
  p.j = 0.5;
  p.d = 0.6;
  p.e_ext = {0.05, -0.02, 0.1};
  FerroLattice lat(5, 4, p);
  randomize(lat, GetParam());
  const std::vector<double> w = [&] {
    std::vector<double> wv(lat.ncells());
    mlmd::Rng rng(GetParam() + 1);
    for (auto& v : wv) v = rng.uniform(0.0, 0.8);
    return wv;
  }();
  lat.set_excitation(w);

  std::vector<Vec3> f;
  lat.forces(f);
  const double eps = 1e-6;
  auto cells = lat.u_cells();
  for (std::size_t i : {0ul, 7ul, 13ul, 19ul}) {
    for (int c = 0; c < 3; ++c) {
      auto& u = cells[i][static_cast<std::size_t>(c)];
      const double orig = u;
      u = orig + eps;
      lat.set_u_cells(cells);
      const double ep = lat.energy();
      u = orig - eps;
      lat.set_u_cells(cells);
      const double em = lat.energy();
      u = orig;
      lat.set_u_cells(cells);
      EXPECT_NEAR(f[i][static_cast<std::size_t>(c)], -(ep - em) / (2 * eps), 1e-5)
          << "cell " << i << " comp " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FerroForceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Ferro, WellAmplitudeAnalytic) {
  FerroParams p;
  p.a0 = -1.0;
  p.b = 1.0;
  p.k = 0.4;
  FerroLattice lat(4, 4, p);
  EXPECT_NEAR(lat.well_amplitude(), std::sqrt((0.4 + 1.0) / 2.0), 1e-12);
}

TEST(Ferro, UniformPolarizedStateIsStationary) {
  FerroParams p;
  p.d = 0.0; // the chiral term tilts the uniform state; test without it
  FerroLattice lat(6, 6, p);
  const double m = lat.well_amplitude();
  fill(lat, {0.0, 0.0, m});
  std::vector<Vec3> f;
  lat.forces(f);
  for (const auto& fi : f)
    for (double c : fi) EXPECT_NEAR(c, 0.0, 1e-10);
}

TEST(Ferro, RelaxationDecreasesEnergy) {
  FerroLattice lat(8, 8);
  randomize(lat, 11);
  const double e0 = lat.energy();
  for (int i = 0; i < 200; ++i) lat.step();
  EXPECT_LT(lat.energy(), e0);
}

TEST(Ferro, RelaxedStateReachesWellAmplitude) {
  FerroParams p;
  p.d = 0.0;
  FerroLattice lat(6, 6, p);
  fill(lat, {0.0, 0.0, 0.1}); // weak seed, relax into well
  for (int i = 0; i < 2000; ++i) lat.step();
  EXPECT_NEAR(lat.mean_uz(), lat.well_amplitude(), 0.05 * lat.well_amplitude());
}

TEST(Ferro, ExcitationSoftensPolarization) {
  FerroParams p;
  p.d = 0.0;
  FerroLattice gs(6, 6, p), xs(6, 6, p);
  fill(gs, {0.0, 0.0, 0.6});
  fill(xs, {0.0, 0.0, 0.6});
  xs.set_uniform_excitation(0.5); // A(w=1/2) = 0: well flattens
  for (int i = 0; i < 1500; ++i) {
    gs.step();
    xs.step();
  }
  EXPECT_LT(xs.mean_uz(), 0.6 * gs.mean_uz());
}

TEST(Ferro, ExcitationSizeMismatchThrows) {
  FerroLattice lat(4, 4);
  std::vector<double> w(5, 0.1);
  EXPECT_THROW(lat.set_excitation(w), std::invalid_argument);
}

TEST(Ferro, CellAccessorsAgreeWithInterleavedCopies) {
  FerroLattice lat(3, 5);
  lat.set_u(2, 1, {1.0, -2.0, 3.0});
  EXPECT_EQ(lat.u(2, 1), (Vec3{1.0, -2.0, 3.0}));
  EXPECT_EQ(lat.u_cells()[lat.index(2, 1)], (Vec3{1.0, -2.0, 3.0}));
  randomize(lat, 9);
  const auto u = lat.u_cells();
  for (std::size_t x = 0; x < lat.lx(); ++x)
    for (std::size_t y = 0; y < lat.ly(); ++y) EXPECT_EQ(lat.u(x, y), u[lat.index(x, y)]);
  EXPECT_EQ(lat.u_store().size(), 3 * lat.ncells());
  EXPECT_THROW(lat.set_u_cells(std::vector<Vec3>(lat.ncells() + 1)), std::invalid_argument);
  EXPECT_THROW(lat.set_v_cells(std::vector<Vec3>(lat.ncells() - 1)), std::invalid_argument);
}

TEST(Ferro, ExternalForceStepsRejectWrongSize) {
  FerroLattice lat(4, 4);
  randomize(lat, 5, 0.4);
  lat.set_v_cells(std::vector<Vec3>(lat.ncells(), Vec3{0.1, -0.2, 0.3}));
  const auto u0 = lat.u_cells();
  const auto v0 = lat.v_cells();
  const std::vector<Vec3> f(lat.ncells() - 1, Vec3{1.0, 1.0, 1.0});
  mlmd::Rng rng(3);
  EXPECT_THROW(lat.step(f), std::invalid_argument);
  EXPECT_THROW(lat.step_langevin(0.05, rng, f), std::invalid_argument);
  EXPECT_EQ(lat.u_cells(), u0);
  EXPECT_EQ(lat.v_cells(), v0);
}

TEST(Ferro, LangevinHeatsColdLattice) {
  FerroParams p;
  p.gamma = 0.3;
  FerroLattice lat(8, 8, p);
  fill(lat, {0.0, 0.0, lat.well_amplitude()});
  mlmd::Rng rng(21);
  for (int i = 0; i < 500; ++i) lat.step_langevin(0.05, rng);
  // Kinetic energy per mode ~ kT/2.
  double ekin = 0;
  for (const auto& v : lat.v_cells())
    ekin += 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
  ekin /= static_cast<double>(lat.ncells()) * 3.0;
  EXPECT_GT(ekin, 0.005);
  EXPECT_LT(ekin, 0.1);
}

TEST(Ferro, ChiralTermBreaksSymmetry) {
  // With D != 0 the energy of a texture differs from its mirror image.
  FerroParams p;
  p.d = 0.8;
  FerroLattice a(6, 6, p), b(6, 6, p);
  randomize(a, 31, 0.4);
  auto u = a.u_cells();
  for (auto& ui : u) ui[0] = -ui[0]; // mirror x
  b.set_u_cells(u);
  EXPECT_GT(std::abs(a.energy() - b.energy()), 1e-6);
}

TEST(Ferro, EnergyExtensive) {
  FerroParams p;
  FerroLattice small(4, 4, p), big(8, 8, p);
  fill(small, {0.0, 0.0, 0.5});
  fill(big, {0.0, 0.0, 0.5});
  EXPECT_NEAR(big.energy(), 4.0 * small.energy(), 1e-9);
}

} // namespace
