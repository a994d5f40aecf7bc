// Tests for the QXMD substrate: atoms/box, linked-cell neighbor lists,
// the LJ potential, velocity-Verlet integration and the Langevin
// thermostat, the surface-hopping occupation updater, perovskite
// structures, and the three-body potential.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mlmd/common/rng.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/qxmd/structures.hpp"
#include "mlmd/qxmd/surface_hopping.hpp"
#include "mlmd/qxmd/three_body.hpp"
#include "mlmd/qxmd/verlet.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::qxmd;

TEST(Box, MinimumImage) {
  Box box{10, 10, 10};
  double a[3] = {9.5, 0, 0}, b[3] = {0.5, 0, 0};
  auto d = box.mic(a, b);
  EXPECT_NEAR(d[0], -1.0, 1e-12);
}

TEST(Box, WrapIntoBox) {
  Box box{10, 10, 10};
  double p[3] = {-0.5, 10.5, 25.0};
  box.wrap(p);
  EXPECT_NEAR(p[0], 9.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
  EXPECT_NEAR(p[2], 5.0, 1e-12);
}

TEST(Atoms, LatticeAndTemperature) {
  auto atoms = make_cubic_lattice(4, 4, 4, 3.0, 100.0);
  EXPECT_EQ(atoms.n(), 64u);
  EXPECT_DOUBLE_EQ(atoms.box.lx, 12.0);
  thermalize(atoms, 0.01, 42);
  EXPECT_NEAR(atoms.temperature(), 0.01, 0.003);
  // COM momentum removed.
  double px = 0;
  for (std::size_t i = 0; i < atoms.n(); ++i) px += atoms.mass[i] * atoms.vel(i)[0];
  EXPECT_NEAR(px, 0.0, 1e-9);
}

class NeighborSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(NeighborSweep, MatchesBruteForce) {
  const auto [na, rc] = GetParam();
  auto atoms = make_cubic_lattice(static_cast<std::size_t>(na),
                                  static_cast<std::size_t>(na),
                                  static_cast<std::size_t>(na), 3.1, 50.0);
  // jitter positions
  mlmd::Rng rng(7);
  for (auto& x : atoms.r) x += 0.3 * rng.normal();
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.box.wrap(atoms.pos(i));

  NeighborList nl(atoms, rc);
  const double rc2 = rc * rc;
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    std::vector<std::uint32_t> brute;
    for (std::size_t j = 0; j < atoms.n(); ++j) {
      if (i == j) continue;
      auto d = atoms.box.mic(atoms.pos(i), atoms.pos(j));
      if (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < rc2)
        brute.push_back(static_cast<std::uint32_t>(j));
    }
    auto got = nl.neighbors(i);
    std::sort(got.begin(), got.end());
    std::sort(brute.begin(), brute.end());
    ASSERT_EQ(got, brute) << "atom " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, NeighborSweep,
                         ::testing::Values(std::make_tuple(3, 3.5),
                                           std::make_tuple(4, 3.2),
                                           std::make_tuple(5, 4.0),
                                           std::make_tuple(6, 6.5),
                                           std::make_tuple(4, 12.0)));

TEST(Neighbor, MemoryAccountingNonzero) {
  auto atoms = make_cubic_lattice(4, 4, 4, 3.0, 50.0);
  NeighborList nl(atoms, 5.0);
  EXPECT_GT(nl.pair_count(), 0u);
  EXPECT_GT(nl.memory_bytes(), nl.pair_count() * sizeof(std::uint32_t) / 2);
}

TEST(Lj, ForcesMatchNumericalGradient) {
  auto atoms = make_cubic_lattice(3, 3, 3, 4.2, 50.0);
  mlmd::Rng rng(9);
  for (auto& x : atoms.r) x += 0.2 * rng.normal();
  LjParams p;
  p.rc = 8.0;
  NeighborList nl(atoms, p.rc);
  std::vector<double> f;
  lj_energy_forces(atoms, nl, p, f);

  const double eps = 1e-6;
  for (std::size_t i : {0ul, 5ul, 13ul}) {
    for (int k = 0; k < 3; ++k) {
      Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      NeighborList nlp(moved, p.rc);
      std::vector<double> tmp;
      const double ep = lj_energy_forces(moved, nlp, p, tmp);
      moved.pos(i)[k] -= 2 * eps;
      NeighborList nlm(moved, p.rc);
      const double em = lj_energy_forces(moved, nlm, p, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  1e-4) << i << "," << k;
    }
  }
}

TEST(Lj, NewtonsThirdLaw) {
  auto atoms = make_cubic_lattice(4, 4, 4, 4.0, 50.0);
  mlmd::Rng rng(10);
  for (auto& x : atoms.r) x += 0.3 * rng.normal();
  LjParams p;
  NeighborList nl(atoms, p.rc);
  std::vector<double> f;
  lj_energy_forces(atoms, nl, p, f);
  double total[3] = {0, 0, 0};
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (int k = 0; k < 3; ++k) total[k] += f[3 * i + static_cast<std::size_t>(k)];
  for (double t : total) EXPECT_NEAR(t, 0.0, 1e-9);
}

TEST(Verlet, ConservesEnergyMicrocanonical) {
  auto atoms = make_cubic_lattice(4, 4, 4, 4.3, 200.0);
  thermalize(atoms, 0.002, 3);
  LjParams p;
  p.epsilon = 0.005;
  p.sigma = 3.8;
  p.rc = 9.0;
  auto forces_fn = [&](const Atoms& a, std::vector<double>& f) {
    NeighborList nl(a, p.rc);
    return lj_energy_forces(a, nl, p, f);
  };
  VerletOptions opt;
  opt.dt = 10.0;
  VelocityVerlet vv(forces_fn, opt);

  std::vector<double> f0;
  const double e_init = forces_fn(atoms, f0) + atoms.kinetic_energy();
  double epot = 0;
  for (int s = 0; s < 100; ++s) epot = vv.step(atoms);
  const double e_final = epot + atoms.kinetic_energy();
  EXPECT_NEAR(e_final, e_init, 5e-3 * std::abs(e_init) + 1e-5);
}

TEST(Verlet, LangevinSamplesTargetTemperature) {
  auto atoms = make_cubic_lattice(4, 4, 4, 4.3, 200.0);
  LjParams p;
  p.epsilon = 0.002;
  auto forces_fn = [&](const Atoms& a, std::vector<double>& f) {
    NeighborList nl(a, p.rc);
    return lj_energy_forces(a, nl, p, f);
  };
  VerletOptions opt;
  opt.dt = 10.0;
  opt.thermostat = Thermostat::kLangevin;
  opt.target_kt = 0.003;
  opt.gamma = 5e-3;
  VelocityVerlet vv(forces_fn, opt);
  double t_avg = 0;
  int count = 0;
  for (int s = 0; s < 400; ++s) {
    vv.step(atoms);
    if (s >= 100) {
      t_avg += atoms.temperature();
      ++count;
    }
  }
  EXPECT_NEAR(t_avg / count, opt.target_kt, 0.3 * opt.target_kt);
}

// --- surface hopping --------------------------------------------------------

la::Matrix<std::complex<double>> two_level(double gap, double coupling) {
  la::Matrix<std::complex<double>> h(2, 2);
  h(0, 0) = -0.5 * gap;
  h(1, 1) = 0.5 * gap;
  h(0, 1) = coupling;
  h(1, 0) = coupling;
  return h;
}

TEST(SurfaceHopping, FirstCallOnlyPrimes) {
  SurfaceHopping sh;
  std::vector<double> f = {2.0, 0.0};
  sh.step(two_level(0.2, 0.0), f, 40.0);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_DOUBLE_EQ(f[1], 0.0);
}

TEST(SurfaceHopping, ConservesTotalOccupation) {
  ShOptions opt;
  opt.kt = 0.05;
  SurfaceHopping sh(opt);
  std::vector<double> f = {2.0, 0.0, 1.0};
  la::Matrix<std::complex<double>> h(3, 3);
  h(0, 0) = -0.1;
  h(1, 1) = 0.0;
  h(2, 2) = 0.1;
  mlmd::Rng rng(5);
  const double total0 = std::accumulate(f.begin(), f.end(), 0.0);
  for (int s = 0; s < 30; ++s) {
    // Slowly rotating coupling drives transitions.
    h(0, 1) = 0.02 * std::sin(0.3 * s);
    h(1, 0) = h(0, 1);
    h(1, 2) = 0.02 * std::cos(0.25 * s);
    h(2, 1) = h(1, 2);
    sh.step(h, f, 40.0);
    EXPECT_NEAR(std::accumulate(f.begin(), f.end(), 0.0), total0, 1e-9);
    for (double v : f) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, opt.f_max + 1e-12);
    }
  }
}

TEST(SurfaceHopping, StaticHamiltonianNoTransitions) {
  SurfaceHopping sh;
  std::vector<double> f = {2.0, 0.0};
  auto h = two_level(0.3, 0.05);
  sh.step(h, f, 40.0);
  const auto f_before = f;
  // Identical Hamiltonian -> identity overlap -> no rotation between
  // adiabatic states -> occupations unchanged.
  sh.step(h, f, 40.0);
  EXPECT_NEAR(f[0], f_before[0], 1e-9);
  EXPECT_NEAR(f[1], f_before[1], 1e-9);
}

TEST(SurfaceHopping, DetailedBalanceSuppressesUphill) {
  // Cold electrons: transitions up a large gap are exponentially damped.
  ShOptions cold;
  cold.kt = 1e-4;
  SurfaceHopping sh(cold);
  std::vector<double> f = {2.0, 0.0};
  sh.step(two_level(1.0, 0.0), f, 40.0);
  sh.step(two_level(1.0, 0.3), f, 40.0); // strong sudden coupling
  // Ground state keeps nearly everything.
  EXPECT_GT(f[0], 1.8);
}

TEST(SurfaceHopping, DeterministicMasterEquationRepeatable) {
  auto run_once = [] {
    SurfaceHopping sh;
    std::vector<double> f = {2.0, 0.0};
    for (int s = 0; s < 10; ++s) {
      auto h = two_level(0.2, 0.05 * std::sin(0.4 * s));
      sh.step(h, f, 40.0);
    }
    return f;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[1], b[1]);
}

TEST(SurfaceHopping, StochasticModeConserves) {
  ShOptions opt;
  opt.stochastic = true;
  opt.seed = 12345;
  SurfaceHopping sh(opt);
  std::vector<double> f = {2.0, 0.0, 0.5};
  la::Matrix<std::complex<double>> h(3, 3);
  h(0, 0) = -0.1;
  h(1, 1) = 0.05;
  h(2, 2) = 0.2;
  const double total0 = 2.5;
  for (int s = 0; s < 20; ++s) {
    h(0, 1) = 0.05 * std::sin(0.7 * s);
    h(1, 0) = h(0, 1);
    sh.step(h, f, 40.0);
    EXPECT_NEAR(std::accumulate(f.begin(), f.end(), 0.0), total0, 1e-9);
  }
}

TEST(SurfaceHopping, EnergiesSortedAscending) {
  SurfaceHopping sh;
  std::vector<double> f = {1.0, 1.0};
  sh.step(two_level(0.4, 0.1), f, 40.0);
  const auto& e = sh.energies();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_LT(e[0], e[1]);
}

// --- perovskite structures -----------------------------------------------------

TEST(Perovskite, Stoichiometry) {
  auto atoms = qxmd::make_perovskite(3, 3, 3);
  EXPECT_EQ(atoms.n(), 135u); // 5 per cell
  EXPECT_EQ(qxmd::count_type(atoms, 0), 27u);
  EXPECT_EQ(qxmd::count_type(atoms, 1), 27u);
  EXPECT_EQ(qxmd::count_type(atoms, 2), 81u);
}

TEST(Perovskite, BOctahedralCoordination) {
  // Each B cation's nearest neighbours are 6 oxygens at a0/2.
  qxmd::PerovskiteSpec spec;
  auto atoms = qxmd::make_perovskite(3, 3, 3, spec);
  qxmd::NeighborList nl(atoms, 0.55 * spec.a0);
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    if (atoms.type[i] != 1) continue;
    std::size_t noxy = 0;
    for (auto j : nl.neighbors(i))
      if (atoms.type[j] == 2) ++noxy;
    EXPECT_EQ(noxy, 6u) << "B cation " << i;
  }
}

TEST(Perovskite, PolarizationDisplacesSublattices) {
  auto atoms = qxmd::make_perovskite(2, 2, 2);
  auto ref = atoms;
  qxmd::polarize_perovskite(atoms, 0.3);
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    // Minimum image: displaced atoms at z = 0 wrap across the boundary.
    const double dz = atoms.box.mic(atoms.pos(i), ref.pos(i))[2];
    if (atoms.type[i] == 1)
      EXPECT_NEAR(dz, 0.3, 1e-12);
    else if (atoms.type[i] == 2)
      EXPECT_NEAR(dz, -0.15, 1e-12);
    else
      EXPECT_NEAR(dz, 0.0, 1e-12);
  }
}

// --- three-body potential ------------------------------------------------------

qxmd::Atoms jittered(std::size_t n, double a0, unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(n, n, n, a0, 100.0);
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.25 * rng.normal();
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.box.wrap(atoms.pos(i));
  return atoms;
}

TEST(ThreeBody, EnergyZeroAtPreferredAngle) {
  // Linear chain i-j-k with j central: for the pair (i,k) around j the
  // angle is 180 deg, cos = -1. With cos0 = -1 the energy vanishes.
  qxmd::Atoms atoms;
  atoms.resize(3);
  atoms.box = {30, 30, 30};
  for (int a = 0; a < 3; ++a) {
    atoms.pos(static_cast<std::size_t>(a))[0] = 10.0 + 3.0 * a;
    atoms.pos(static_cast<std::size_t>(a))[1] = 15.0;
    atoms.pos(static_cast<std::size_t>(a))[2] = 15.0;
  }
  qxmd::ThreeBodyParams p;
  p.cos0 = -1.0;
  p.rc = 4.0; // only nearest bonds: central atom sees the one 180-deg pair
  qxmd::NeighborList nl(atoms, p.rc);
  std::vector<double> f(9, 0.0);
  EXPECT_NEAR(qxmd::three_body_energy_forces(atoms, nl, p, f), 0.0, 1e-12);
}

TEST(ThreeBody, EnergyPositiveOffAngle) {
  qxmd::Atoms atoms;
  atoms.resize(3);
  atoms.box = {30, 30, 30};
  atoms.pos(0)[0] = 15.0;
  atoms.pos(0)[1] = 15.0;
  atoms.pos(1)[0] = 18.0;
  atoms.pos(1)[1] = 15.0;
  atoms.pos(2)[0] = 15.0;
  atoms.pos(2)[1] = 18.0; // 90-degree angle at atom 0
  for (int a = 0; a < 3; ++a) atoms.pos(static_cast<std::size_t>(a))[2] = 15.0;
  qxmd::ThreeBodyParams p;
  p.rc = 4.0;
  qxmd::NeighborList nl(atoms, p.rc);
  std::vector<double> f(9, 0.0);
  EXPECT_GT(qxmd::three_body_energy_forces(atoms, nl, p, f), 0.0);
}

TEST(ThreeBody, ForcesMatchNumericalGradient) {
  auto atoms = jittered(2, 4.2, 4);
  qxmd::ThreeBodyParams p;
  p.rc = 5.0;
  p.k3 = 0.05;
  qxmd::NeighborList nl(atoms, p.rc);
  std::vector<double> f(3 * atoms.n(), 0.0);
  qxmd::three_body_energy_forces(atoms, nl, p, f);

  const double eps = 1e-6;
  for (std::size_t i : {0ul, 3ul, 6ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, p.rc);
      std::vector<double> tmp(3 * atoms.n(), 0.0);
      const double ep = qxmd::three_body_energy_forces(moved, nlp, p, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, p.rc);
      tmp.assign(3 * atoms.n(), 0.0);
      const double em = qxmd::three_body_energy_forces(moved, nlm, p, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  1e-5) << i << "," << k;
    }
  }
}

TEST(ThreeBody, NewtonsThirdLaw) {
  auto atoms = jittered(3, 4.0, 5);
  qxmd::ThreeBodyParams p;
  p.rc = 5.0;
  qxmd::NeighborList nl(atoms, p.rc);
  std::vector<double> f(3 * atoms.n(), 0.0);
  qxmd::three_body_energy_forces(atoms, nl, p, f);
  double total[3] = {0, 0, 0};
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (int k = 0; k < 3; ++k) total[k] += f[3 * i + static_cast<std::size_t>(k)];
  for (double t : total) EXPECT_NEAR(t, 0.0, 1e-10);
}

TEST(ThreeBody, WrongForceSizeThrows) {
  auto atoms = jittered(2, 4.0, 6);
  qxmd::NeighborList nl(atoms, 5.0);
  std::vector<double> f(5, 0.0);
  EXPECT_THROW(qxmd::three_body_energy_forces(atoms, nl, {}, f),
               std::invalid_argument);
}

TEST(LjCutoff, ShiftedForceContinuity) {
  // The shifted-force form: both U and dU vanish at the cutoff, so a pair
  // crossing rc contributes continuously.
  qxmd::LjParams p;
  p.rc = 9.0;
  qxmd::Atoms atoms;
  atoms.resize(2);
  atoms.box = {40, 40, 40};
  atoms.pos(0)[0] = atoms.pos(0)[1] = atoms.pos(0)[2] = 20;
  atoms.pos(1)[1] = atoms.pos(1)[2] = 20;

  auto energy_at = [&](double r) {
    atoms.pos(1)[0] = 20 + r;
    qxmd::NeighborList nl(atoms, p.rc + 1.0);
    std::vector<double> f;
    return qxmd::lj_energy_forces(atoms, nl, p, f);
  };
  EXPECT_NEAR(energy_at(p.rc - 1e-6), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(energy_at(p.rc + 0.1), 0.0);
}

} // namespace
