// Tests for the composite split-operator propagators: unitarity, exact
// time reversibility and convergence-order separation between S2 and S4.

#include <gtest/gtest.h>

#include <cmath>

#include "mlmd/lfd/propagator.hpp"
#include "mlmd/lfd/vloc.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::lfd;

grid::Grid3 small_grid() { return {8, 8, 8, 0.6, 0.6, 0.6}; }

std::vector<double> test_potential(const grid::Grid3& g) {
  std::vector<lfd::Ion> ions = {{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(),
                                 2.0, 1.5, 2.0}};
  return ionic_potential(g, ions);
}

double max_norm_dev(const SoAWave<double>& w) {
  auto n = w.norms2();
  double d = 0;
  for (double v : n) d = std::max(d, std::abs(v - 1.0));
  return d;
}

class OrderSweep : public ::testing::TestWithParam<PropOrder> {};

TEST_P(OrderSweep, Unitary) {
  SoAWave<double> w(small_grid(), 4);
  init_plane_waves(w);
  auto v = test_potential(w.grid);
  KinParams kin;
  kin.dt = 0.05;
  kin.a[1] = 0.2;
  for (int i = 0; i < 20; ++i) split_step(w, v, kin, GetParam());
  EXPECT_LT(max_norm_dev(w), 1e-10);
}

TEST_P(OrderSweep, TimeReversible) {
  SoAWave<double> w(small_grid(), 3);
  init_plane_waves(w);
  auto orig = w.psi;
  auto v = test_potential(w.grid);
  KinParams fwd;
  fwd.dt = 0.06;
  KinParams bwd;
  bwd.dt = -0.06;
  for (int i = 0; i < 10; ++i) split_step(w, v, fwd, GetParam());
  for (int i = 0; i < 10; ++i) split_step(w, v, bwd, GetParam());
  EXPECT_LT(la::max_abs_diff(w.psi, orig), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Orders, OrderSweep,
                         ::testing::Values(PropOrder::kSecond, PropOrder::kFourth));

TEST(Propagator, FourthOrderMoreAccurate) {
  // Reference: many tiny S2 steps. Compare one big step at each order.
  const double t_total = 0.4;
  auto v = test_potential(small_grid());
  auto make = [&] {
    SoAWave<double> w(small_grid(), 3);
    init_plane_waves(w);
    return w;
  };

  auto ref = make();
  {
    KinParams k;
    k.dt = t_total / 512;
    for (int i = 0; i < 512; ++i) split_step(ref, v, k, PropOrder::kSecond);
  }

  auto run = [&](PropOrder order, int nsteps) {
    auto w = make();
    KinParams k;
    k.dt = t_total / nsteps;
    for (int i = 0; i < nsteps; ++i) split_step(w, v, k, order);
    return la::max_abs_diff(w.psi, ref.psi);
  };

  const double e2 = run(PropOrder::kSecond, 8);
  const double e4 = run(PropOrder::kFourth, 8);
  EXPECT_LT(e4, 0.25 * e2);

  // Order check: halving dt should cut S4's error by ~16, S2's by ~4.
  const double e2_half = run(PropOrder::kSecond, 16);
  const double e4_half = run(PropOrder::kFourth, 16);
  EXPECT_GT(e2 / e2_half, 2.5);
  EXPECT_GT(e4 / e4_half, 8.0);
}

} // namespace
