// Tests for topological analysis: solid angles, charge quantization of
// painted textures, initializers, and polar vortices (in-plane winding).

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mlmd/topo/topology.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::topo;

TEST(SolidAngle, OctantIsPiOverTwo) {
  // (x, y, z) unit vectors span one octant of the sphere: area 4pi/8.
  Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_NEAR(solid_angle(x, y, z), std::numbers::pi / 2.0, 1e-12);
  // Swapping two vertices flips orientation.
  EXPECT_NEAR(solid_angle(y, x, z), -std::numbers::pi / 2.0, 1e-12);
}

TEST(SolidAngle, DegenerateTriangleZero) {
  Vec3 a{0, 0, 1};
  EXPECT_NEAR(solid_angle(a, a, a), 0.0, 1e-12);
}

TEST(Topo, UniformFieldZeroCharge) {
  ferro::FerroLattice lat(12, 12);
  init_uniform(lat, +1.0);
  EXPECT_NEAR(topological_charge(lat), 0.0, 1e-9);
}

TEST(Topo, StripesZeroCharge) {
  ferro::FerroLattice lat(16, 16);
  init_stripe_domains(lat, 4);
  EXPECT_NEAR(topological_charge(lat), 0.0, 1e-9);
}

class SkyrmionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkyrmionSweep, SingleSkyrmionUnitCharge) {
  const int sign = GetParam();
  ferro::FerroLattice lat(32, 32);
  init_uniform(lat, +1.0);
  paint_skyrmion(lat, 16.0, 16.0, 5.0, lat.well_amplitude(), sign);
  const double q = topological_charge(lat);
  EXPECT_NEAR(std::abs(q), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Signs, SkyrmionSweep, ::testing::Values(+1, -1));

TEST(Topo, OppositeSignsOppositeCharges) {
  ferro::FerroLattice a(32, 32), b(32, 32);
  init_uniform(a, +1.0);
  init_uniform(b, +1.0);
  paint_skyrmion(a, 16, 16, 5.0, a.well_amplitude(), +1);
  paint_skyrmion(b, 16, 16, 5.0, b.well_amplitude(), -1);
  EXPECT_NEAR(topological_charge(a), -topological_charge(b), 0.1);
}

class SuperlatticeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuperlatticeSweep, ChargeCountsSkyrmions) {
  const std::size_t nsk = GetParam();
  ferro::FerroLattice lat(16 * nsk, 16 * nsk);
  init_skyrmion_superlattice(lat, nsk, nsk);
  const double q = topological_charge(lat);
  EXPECT_NEAR(std::abs(q), static_cast<double>(nsk * nsk),
              0.1 * static_cast<double>(nsk * nsk));
}

INSTANTIATE_TEST_SUITE_P(Counts, SuperlatticeSweep, ::testing::Values(1, 2, 3));

TEST(Topo, ChargeNearlyQuantizedAfterRelaxation) {
  ferro::FerroLattice lat(32, 32);
  init_skyrmion_superlattice(lat, 2, 2);
  const double q0 = topological_charge(lat);
  for (int i = 0; i < 150; ++i) lat.step();
  const double q1 = topological_charge(lat);
  // Topological protection: short relaxation must not change Q.
  EXPECT_NEAR(q1, q0, 0.2);
  // And Q is near an integer.
  EXPECT_NEAR(q1, std::round(q1), 0.15);
}

TEST(Topo, ChargeDensityLocalizedAtSkyrmion) {
  ferro::FerroLattice lat(32, 32);
  init_uniform(lat, +1.0);
  paint_skyrmion(lat, 8.0, 8.0, 4.0, lat.well_amplitude(), +1);
  auto q = charge_density(lat.field(), 32, 32);
  // Density near the core dominates density far away.
  double near = 0, far = 0;
  for (std::size_t x = 0; x < 32; ++x)
    for (std::size_t y = 0; y < 32; ++y) {
      const double dx = static_cast<double>(x) - 8.0;
      const double dy = static_cast<double>(y) - 8.0;
      if (dx * dx + dy * dy < 64.0)
        near += std::abs(q[x * 32 + y]);
      else if (dx * dx + dy * dy > 196.0)
        far += std::abs(q[x * 32 + y]);
    }
  EXPECT_GT(near, 10.0 * far);
}

TEST(Topo, CountChargedPlaquettes) {
  ferro::FerroLattice lat(32, 32);
  init_uniform(lat, +1.0);
  EXPECT_EQ(count_charged_plaquettes(lat), 0u);
  paint_skyrmion(lat, 16, 16, 4.0, lat.well_amplitude(), +1);
  EXPECT_GT(count_charged_plaquettes(lat, 0.01), 0u);
}

TEST(Topo, ZeroCellsAreSkipped) {
  ferro::FerroLattice lat(8, 8);
  // All-zero field: undefined direction -> contributes zero, not NaN.
  const double q = topological_charge(lat);
  EXPECT_DOUBLE_EQ(q, 0.0);
  EXPECT_FALSE(std::isnan(q));
}

// --- vortices ---------------------------------------------------------------

TEST(Vortex, WindingMatchesPainted) {
  ferro::FerroLattice lat(24, 24);
  topo::paint_vortex(lat, 12, 12, 0.8, +1);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), 1.0, 0.05);
  topo::paint_vortex(lat, 12, 12, 0.8, -1);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), -1.0, 0.05);
  topo::paint_vortex(lat, 12, 12, 0.8, +2);
  EXPECT_NEAR(topo::in_plane_winding(lat, 12, 12, 8.0), 2.0, 0.1);
}

TEST(Vortex, EscapedCoreHasMeronHalfCharge) {
  // A vortex whose core escapes into +z covers half the sphere: the
  // charge density integrated over the core disc is |Q| = 1/2 (a meron).
  // (The lattice-total charge is an integer on a torus — the compensating
  // density lives at the periodic seam — so the measurement is local.)
  ferro::FerroLattice lat(32, 32);
  topo::paint_vortex(lat, 16, 16, 0.8, +1, 3.0);
  auto q = topo::charge_density(lat.field(), 32, 32);
  double q_core = 0.0;
  for (int x = 0; x < 32; ++x)
    for (int y = 0; y < 32; ++y) {
      const double dx = x - 16.0, dy = y - 16.0;
      if (dx * dx + dy * dy < 100.0)
        q_core += q[static_cast<std::size_t>(x * 32 + y)];
    }
  EXPECT_NEAR(std::abs(q_core), 0.5, 0.1);
}

TEST(Vortex, UniformFieldHasNoWinding) {
  ferro::FerroLattice lat(16, 16);
  for (auto& u : lat.field()) u = {0.3, 0.1, 0.5};
  EXPECT_NEAR(topo::in_plane_winding(lat, 8, 8, 5.0), 0.0, 1e-9);
}

TEST(Topo, ChargeDensitySumsToTotalCharge) {
  ferro::FerroLattice lat(24, 24);
  topo::init_skyrmion_superlattice(lat, 2, 2);
  auto q = topo::charge_density(lat.field(), 24, 24);
  double sum = 0;
  for (double v : q) sum += v;
  EXPECT_NEAR(sum, topo::topological_charge(lat), 1e-12);
}

} // namespace
