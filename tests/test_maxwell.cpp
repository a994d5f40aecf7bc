// Tests for the 1D multiscale Maxwell solver and the pulse source.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/common/units.hpp"
#include "mlmd/maxwell/maxwell1d.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::maxwell;
using mlmd::units::c_light;

TEST(Pulse, EnvelopePeaksAtT0) {
  Pulse p;
  p.t0 = 100.0;
  p.fwhm = 50.0;
  EXPECT_NEAR(p.envelope(100.0), 1.0, 1e-12);
  EXPECT_LT(p.envelope(160.0), p.envelope(100.0));
  // FWHM definition: half max at t0 +- fwhm/2.
  EXPECT_NEAR(p.envelope(100.0 + 25.0), 0.5, 1e-9);
}

TEST(Pulse, FieldAndPotentialConsistent) {
  Pulse p;
  p.e0 = 0.02;
  p.omega = 0.1;
  p.t0 = 200.0;
  p.fwhm = 80.0;
  // E ~ -(1/c) dA/dt: check numerically at a few points (slowly varying
  // envelope: tolerance proportional to envelope derivative).
  for (double t : {150.0, 200.0, 230.0}) {
    const double eps = 0.01;
    const double dA = (p.apot(t + eps) - p.apot(t - eps)) / (2 * eps);
    EXPECT_NEAR(-dA / c_light, p.efield(t), 0.15 * p.e0);
  }
}

TEST(Pulse, FluencePositiveAndScalesQuadratically) {
  Pulse p;
  p.e0 = 0.01;
  const double f1 = p.fluence();
  p.e0 = 0.02;
  EXPECT_NEAR(p.fluence() / f1, 4.0, 1e-9);
}

TEST(Maxwell, CflViolationThrows) {
  EXPECT_THROW(Maxwell1D(16, /*dx=*/1.0, /*dt=*/1.0), std::invalid_argument);
}

TEST(Maxwell, TooFewCellsThrows) {
  EXPECT_THROW(Maxwell1D(2, 10.0, 0.01), std::invalid_argument);
}

TEST(Maxwell, VacuumStaysDark) {
  Maxwell1D em(32, 10.0, 0.03);
  std::vector<double> j(32, 0.0);
  for (int i = 0; i < 100; ++i) em.step(j);
  for (std::size_t c = 0; c < 32; ++c) EXPECT_DOUBLE_EQ(em.a_at(c), 0.0);
}

TEST(Maxwell, SourceInjectsField) {
  const std::size_t n = 64;
  const double dx = 20.0;
  const double dt = 0.5 * dx / c_light;
  Maxwell1D em(n, dx, dt);
  Pulse p;
  p.e0 = 0.01;
  p.omega = 0.5;
  p.t0 = 40 * dt;
  p.fwhm = 20 * dt;
  em.set_source(5, p);
  std::vector<double> j(n, 0.0);
  double max_a = 0;
  for (int i = 0; i < 200; ++i) {
    em.step(j);
    max_a = std::max(max_a, std::abs(em.a_at(10)));
  }
  EXPECT_GT(max_a, 0.0);
}

TEST(Maxwell, PulsePropagatesAtLightSpeed) {
  const std::size_t n = 400;
  const double dx = 10.0;
  const double dt = 0.5 * dx / c_light;
  Maxwell1D em(n, dx, dt);
  Pulse p;
  p.e0 = 0.01;
  p.omega = 2.0 * 3.14159 / (40 * dt);
  p.t0 = 60 * dt;
  p.fwhm = 30 * dt;
  em.set_source(20, p);
  std::vector<double> j(n, 0.0);

  // Find the time the wavefront (1% of max at source) reaches cell 220.
  double source_max = 0;
  int arrival = -1;
  for (int i = 0; i < 1200 && arrival < 0; ++i) {
    em.step(j);
    source_max = std::max(source_max, std::abs(em.a_at(21)));
    if (source_max > 0 && std::abs(em.a_at(220)) > 0.2 * source_max)
      arrival = i;
  }
  ASSERT_GT(arrival, 0);
  const double distance = 200.0 * dx;
  const double expected_steps = distance / (c_light * dt);
  // Pulse centre lags the front; allow generous but meaningful bounds.
  EXPECT_GT(arrival, 0.8 * expected_steps);
  EXPECT_LT(arrival, 2.5 * expected_steps);
}

TEST(Maxwell, MurBoundariesAbsorb) {
  const std::size_t n = 64;
  const double dx = 10.0;
  const double dt = 0.9 * dx / c_light; // Mur works best near CFL limit
  Maxwell1D em(n, dx, dt);
  Pulse p;
  p.e0 = 0.05;
  p.omega = 2.0 * 3.14159 / (20 * dt);
  p.t0 = 30 * dt;
  p.fwhm = 15 * dt;
  em.set_source(n / 2, p);
  std::vector<double> j(n, 0.0);
  double peak_energy = 0;
  for (int i = 0; i < 120; ++i) {
    em.step(j);
    peak_energy = std::max(peak_energy, em.field_energy());
  }
  // Long after the pulse leaves, the box must be nearly empty.
  for (int i = 0; i < 600; ++i) em.step(j);
  EXPECT_LT(em.field_energy(), 0.05 * peak_energy);
}

TEST(Maxwell, CurrentSourceRadiates) {
  const std::size_t n = 64;
  const double dx = 10.0;
  const double dt = 0.5 * dx / c_light;
  Maxwell1D em(n, dx, dt);
  std::vector<double> j(n, 0.0);
  for (int i = 0; i < 50; ++i) {
    j[n / 2] = 0.001 * std::sin(0.3 * i);
    em.step(j);
  }
  EXPECT_GT(std::abs(em.a_at(n / 2)), 0.0);
  EXPECT_GT(em.field_energy(), 0.0);
}

TEST(Maxwell, TimeAdvances) {
  Maxwell1D em(16, 10.0, 0.02);
  std::vector<double> j(16, 0.0);
  em.step(j);
  em.step(j);
  EXPECT_NEAR(em.time(), 0.04, 1e-12);
}

TEST(Maxwell, JySizeMismatchThrows) {
  Maxwell1D em(16, 10.0, 0.02);
  std::vector<double> j(8, 0.0);
  EXPECT_THROW(em.step(j), std::invalid_argument);
}

TEST(Maxwell, BadSourceCellThrows) {
  Maxwell1D em(16, 10.0, 0.02);
  EXPECT_THROW(em.set_source(99, Pulse{}), std::out_of_range);
}

TEST(Maxwell1D, LinearSuperpositionOfSources) {
  // The vacuum solver is linear: the field of two current sources equals
  // the sum of their individual fields.
  const std::size_t n = 48;
  const double dx = 10.0, dt = 0.4 * dx / units::c_light;
  auto run = [&](bool s1, bool s2) {
    maxwell::Maxwell1D em(n, dx, dt);
    std::vector<double> j(n, 0.0);
    for (int step = 0; step < 60; ++step) {
      j.assign(n, 0.0);
      if (s1) j[10] = 1e-3 * std::sin(0.3 * step);
      if (s2) j[30] = 2e-3 * std::cos(0.2 * step);
      em.step(j);
    }
    std::vector<double> a(em.a().begin(), em.a().end());
    return a;
  };
  auto a1 = run(true, false);
  auto a2 = run(false, true);
  auto a12 = run(true, true);
  for (std::size_t c = 0; c < n; ++c)
    EXPECT_NEAR(a12[c], a1[c] + a2[c], 1e-12) << c;
}

TEST(Pulse, PeakVectorPotentialScale) {
  maxwell::Pulse p;
  p.e0 = 0.02;
  p.omega = 0.1;
  p.t0 = 500.0;
  p.fwhm = 4000.0; // long envelope: A0 ~ c E0/omega
  double max_a = 0;
  for (double t = 400; t < 600; t += 1.0) max_a = std::max(max_a, std::abs(p.apot(t)));
  EXPECT_NEAR(max_a, units::c_light * p.e0 / p.omega, 0.05 * max_a);
}

} // namespace
