// Tests for the NNQMD stack: MLP gradients, descriptors, Allegro-style
// models (forces vs numerical gradients, block inference), training with
// Adam and SAM, TEA dataset unification, Eq. (4) mixing, the
// fidelity-scaling instrumentation, angular (three-body) descriptors,
// and multi-species descriptors/models.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "mlmd/common/rng.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/la/matrix.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/angular.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/nnq/fidelity.hpp"
#include "mlmd/nnq/mlp.hpp"
#include "mlmd/nnq/optimizer.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/qxmd/pair_potential.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::nnq;

TEST(Mlp, ForwardShapes) {
  Mlp net({4, 8, 2});
  EXPECT_EQ(net.n_in(), 4u);
  EXPECT_EQ(net.n_out(), 2u);
  EXPECT_EQ(net.n_params(), 4u * 8 + 8 + 8 * 2 + 2);
  auto y = net.forward({1.0, -0.5, 0.2, 0.0});
  EXPECT_EQ(y.size(), 2u);
}

TEST(Mlp, DeterministicForSeed) {
  Mlp a({3, 5, 1}, 99), b({3, 5, 1}, 99);
  EXPECT_EQ(a.params(), b.params());
}

TEST(Mlp, GradInputMatchesFiniteDifference) {
  Mlp net({5, 12, 7, 1}, 3);
  std::vector<double> x = {0.3, -0.7, 1.1, 0.0, -0.2};
  auto g = net.grad_input(x);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd = (net.value(xp) - net.value(xm)) / (2 * eps);
    EXPECT_NEAR(g[i], fd, 1e-7) << "input " << i;
  }
}

TEST(Mlp, WeightGradientMatchesFiniteDifference) {
  Mlp net({3, 6, 1}, 4);
  std::vector<double> x = {0.5, -0.3, 0.9};
  std::vector<double> grad(net.n_params(), 0.0);
  net.forward_backward(x, {1.0}, grad); // dL/dy = 1 -> grad of y itself
  const double eps = 1e-6;
  for (std::size_t i = 0; i < net.n_params(); i += 5) {
    const double orig = net.params()[i];
    net.params()[i] = orig + eps;
    const double yp = net.value(x);
    net.params()[i] = orig - eps;
    const double ym = net.value(x);
    net.params()[i] = orig;
    EXPECT_NEAR(grad[i], (yp - ym) / (2 * eps), 1e-7) << "param " << i;
  }
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp net({4, 7, 1}, 5);
  const std::string path = ::testing::TempDir() + "/mlp_roundtrip.txt";
  net.save(path);
  auto loaded = Mlp::load(path);
  EXPECT_EQ(loaded.sizes(), net.sizes());
  EXPECT_EQ(loaded.params(), net.params());
  std::remove(path.c_str());
}

TEST(Mlp, LoadMissingFileThrows) {
  EXPECT_THROW(Mlp::load("/nonexistent/model.txt"), std::runtime_error);
}

// The batched paths are documented (mlp.hpp) as *bitwise identical* to
// looping the scalar paths over rows: the GEMM engine reduces each output
// in ascending-k order with one accumulator, so no reassociation happens.
TEST(Mlp, BatchedForwardBitwiseMatchesScalar) {
  Mlp net({6, 16, 9, 2}, 21);
  mlmd::Rng rng(77);
  const std::size_t nb = 11;
  la::Matrix<double> x(nb, net.n_in());
  for (std::size_t s = 0; s < nb; ++s)
    for (std::size_t i = 0; i < net.n_in(); ++i) x(s, i) = rng.normal();

  la::Matrix<double> y;
  net.forward_batch(x, y);
  ASSERT_EQ(y.rows(), nb);
  ASSERT_EQ(y.cols(), net.n_out());
  for (std::size_t s = 0; s < nb; ++s) {
    std::vector<double> xs(net.n_in());
    for (std::size_t i = 0; i < net.n_in(); ++i) xs[i] = x(s, i);
    const auto ys = net.forward(xs);
    for (std::size_t o = 0; o < net.n_out(); ++o)
      EXPECT_EQ(y(s, o), ys[o]) << "row " << s << " out " << o;
  }
}

TEST(Mlp, BatchedGradInputBitwiseMatchesScalar) {
  Mlp net({5, 12, 7, 1}, 22);
  mlmd::Rng rng(78);
  const std::size_t nb = 9;
  la::Matrix<double> x(nb, net.n_in());
  for (std::size_t s = 0; s < nb; ++s)
    for (std::size_t i = 0; i < net.n_in(); ++i) x(s, i) = rng.normal();

  la::Matrix<double> g, y;
  net.grad_input_batch(x, g, &y);
  ASSERT_EQ(g.rows(), nb);
  ASSERT_EQ(g.cols(), net.n_in());
  for (std::size_t s = 0; s < nb; ++s) {
    std::vector<double> xs(net.n_in());
    for (std::size_t i = 0; i < net.n_in(); ++i) xs[i] = x(s, i);
    const auto gs = net.grad_input(xs);
    EXPECT_EQ(y(s, 0), net.value(xs)) << "row " << s;
    for (std::size_t i = 0; i < net.n_in(); ++i)
      EXPECT_EQ(g(s, i), gs[i]) << "row " << s << " input " << i;
  }
}

TEST(Mlp, BatchedForwardBackwardBitwiseMatchesScalar) {
  Mlp net({4, 10, 6, 2}, 23);
  mlmd::Rng rng(79);
  const std::size_t nb = 7;
  la::Matrix<double> x(nb, net.n_in()), dl_dy(nb, net.n_out());
  for (std::size_t s = 0; s < nb; ++s) {
    for (std::size_t i = 0; i < net.n_in(); ++i) x(s, i) = rng.normal();
    for (std::size_t o = 0; o < net.n_out(); ++o) dl_dy(s, o) = rng.normal();
  }

  std::vector<double> grad_ref(net.n_params(), 0.0);
  std::vector<std::vector<double>> y_ref;
  for (std::size_t s = 0; s < nb; ++s) {
    std::vector<double> xs(net.n_in()), ds(net.n_out());
    for (std::size_t i = 0; i < net.n_in(); ++i) xs[i] = x(s, i);
    for (std::size_t o = 0; o < net.n_out(); ++o) ds[o] = dl_dy(s, o);
    y_ref.push_back(net.forward_backward(xs, ds, grad_ref));
  }

  std::vector<double> grad(net.n_params(), 0.0);
  la::Matrix<double> y;
  net.forward_backward_batch(x, dl_dy, grad, y);
  for (std::size_t s = 0; s < nb; ++s)
    for (std::size_t o = 0; o < net.n_out(); ++o)
      EXPECT_EQ(y(s, o), y_ref[s][o]) << "row " << s;
  for (std::size_t p = 0; p < net.n_params(); ++p)
    EXPECT_EQ(grad[p], grad_ref[p]) << "param " << p;
}

// Steady-state batched inference never touches the heap: all scratch
// lives in the thread-local Workspace arena (DESIGN.md §8).
TEST(Mlp, BatchedForwardSteadyStateAllocFree) {
  Mlp net({8, 24, 24, 1}, 24);
  mlmd::Rng rng(80);
  la::Matrix<double> x(64, net.n_in());
  for (std::size_t s = 0; s < x.rows(); ++s)
    for (std::size_t i = 0; i < x.cols(); ++i) x(s, i) = rng.normal();
  la::Matrix<double> y, g;
  net.forward_batch(x, y); // warm-up: arena growth + y resize allowed here
  net.grad_input_batch(x, g, &y);
  const auto allocs = mlmd::common::Workspace::total_heap_allocs();
  for (int rep = 0; rep < 3; ++rep) {
    net.forward_batch(x, y);
    net.grad_input_batch(x, g, &y);
  }
  EXPECT_EQ(mlmd::common::Workspace::total_heap_allocs(), allocs);
}

TEST(Adam, MinimizesQuadratic) {
  // minimize f(w) = |w - target|^2.
  std::vector<double> w = {5.0, -3.0, 2.0};
  const std::vector<double> target = {1.0, 1.0, 1.0};
  Adam adam(3, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    std::vector<double> g(3);
    for (int k = 0; k < 3; ++k) g[static_cast<std::size_t>(k)] =
        2.0 * (w[static_cast<std::size_t>(k)] - target[static_cast<std::size_t>(k)]);
    adam.step(w, g);
  }
  for (int k = 0; k < 3; ++k)
    EXPECT_NEAR(w[static_cast<std::size_t>(k)], 1.0, 1e-3);
}

TEST(Sam, PerturbAndRestore) {
  std::vector<double> w = {1.0, 2.0};
  std::vector<double> g = {3.0, 4.0}; // |g| = 5
  auto disp = sam_perturb(w, g, 0.5);
  EXPECT_NEAR(w[0], 1.0 + 0.5 * 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0 + 0.5 * 4.0 / 5.0, 1e-12);
  for (std::size_t i = 0; i < 2; ++i) w[i] -= disp[i];
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);
}

TEST(Descriptor, CutoffSmoothAndZeroBeyond) {
  auto basis = RadialBasis::make(4, 1.0, 5.0, 1.0);
  EXPECT_NEAR(basis.fc(0.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(basis.fc(5.0), 0.0);
  EXPECT_DOUBLE_EQ(basis.fc(7.0), 0.0);
  // Derivative consistency near the cutoff.
  const double eps = 1e-6;
  for (double r : {1.5, 3.0, 4.9}) {
    EXPECT_NEAR(basis.dfc(r), (basis.fc(r + eps) - basis.fc(r - eps)) / (2 * eps),
                1e-6);
  }
}

TEST(Descriptor, BasisDerivativeMatchesFd) {
  auto basis = RadialBasis::make(6, 1.0, 6.0, 1.2);
  std::vector<double> g1, dg, g2, tmp;
  const double r = 3.17, eps = 1e-6;
  basis.eval(r, g1, dg);
  basis.eval(r + eps, g2, tmp);
  basis.eval(r - eps, g1, tmp);
  std::vector<double> gm = g1;
  basis.eval(r, g1, dg);
  for (std::size_t k = 0; k < basis.size(); ++k)
    EXPECT_NEAR(dg[k], (g2[k] - gm[k]) / (2 * eps), 1e-6);
}

TEST(Descriptor, InvariantUnderGlobalTranslation) {
  auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.0, 50.0);
  mlmd::Rng rng(8);
  for (auto& x : atoms.r) x += 0.2 * rng.normal();
  auto basis = RadialBasis::make(5, 1.0, 6.0, 1.0);
  qxmd::NeighborList nl(atoms, basis.rc);
  auto d1 = atom_descriptors(atoms, nl, basis);

  for (std::size_t i = 0; i < atoms.n(); ++i) {
    atoms.pos(i)[0] += 1.7;
    atoms.box.wrap(atoms.pos(i));
  }
  qxmd::NeighborList nl2(atoms, basis.rc);
  auto d2 = atom_descriptors(atoms, nl2, basis);
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_NEAR(d1[i], d2[i], 1e-9);
}

TEST(AtomModel, ForcesMatchEnergyGradient) {
  auto atoms = qxmd::make_cubic_lattice(2, 2, 2, 4.5, 50.0);
  mlmd::Rng rng(9);
  for (auto& x : atoms.r) x += 0.3 * rng.normal();
  AtomModel model(RadialBasis::make(4, 1.5, 6.0, 1.2), {8, 8}, 77);
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);

  const double eps = 1e-5;
  for (std::size_t i : {0ul, 3ul, 7ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, 6.0);
      std::vector<double> tmp;
      const double ep = model.energy_forces(moved, nlp, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, 6.0);
      const double em = model.energy_forces(moved, nlm, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  1e-4) << i << "," << k;
    }
  }
}

TEST(AtomModel, NewtonsThirdLaw) {
  auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.0, 50.0);
  mlmd::Rng rng(10);
  for (auto& x : atoms.r) x += 0.3 * rng.normal();
  AtomModel model(RadialBasis::make(6, 1.5, 6.0, 1.2), {16, 8});
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);
  double total[3] = {0, 0, 0};
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (int k = 0; k < 3; ++k) total[k] += f[3 * i + static_cast<std::size_t>(k)];
  for (double t : total) EXPECT_NEAR(t, 0.0, 1e-9);
}

TEST(AtomModel, BlockInferenceBitwiseIdentical) {
  auto atoms = qxmd::make_cubic_lattice(4, 4, 4, 4.0, 50.0);
  mlmd::Rng rng(11);
  for (auto& x : atoms.r) x += 0.2 * rng.normal();
  AtomModel model(RadialBasis::make(6, 1.5, 6.0, 1.2), {16, 8});
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f_full, f_blocked;
  const double e_full = model.energy_forces(atoms, nl, f_full, 0);
  const std::size_t scratch_full = model.last_peak_scratch_bytes();
  const double e_blocked = model.energy_forces(atoms, nl, f_blocked, 7);
  const std::size_t scratch_blocked = model.last_peak_scratch_bytes();
  EXPECT_DOUBLE_EQ(e_full, e_blocked);
  EXPECT_EQ(f_full, f_blocked);
  // Block inference bounds the scratch (paper Sec. V.B.9).
  EXPECT_LT(scratch_blocked, scratch_full);
}

TEST(LatticeModel, ForcesMatchEnergyGradient) {
  ferro::FerroLattice lat(4, 4);
  mlmd::Rng rng(12);
  for (auto& u : lat.field()) u = {0.3 * rng.normal(), 0.3 * rng.normal(),
                                   0.5 + 0.2 * rng.normal()};
  LatticeModel model({12, 12}, 13);
  auto f = model.forces(lat);
  const double eps = 1e-6;
  for (std::size_t i : {0ul, 5ul, 10ul}) {
    for (int c = 0; c < 3; ++c) {
      auto& u = lat.field()[i][static_cast<std::size_t>(c)];
      const double orig = u;
      u = orig + eps;
      const double ep = model.energy(lat);
      u = orig - eps;
      const double em = model.energy(lat);
      u = orig;
      EXPECT_NEAR(f[i][static_cast<std::size_t>(c)], -(ep - em) / (2 * eps), 1e-6)
          << i << "," << c;
    }
  }
}

TEST(Training, LossDecreases) {
  auto data = sample_ferro_dataset(6, 6, 0.05, 12, 5, 0.0, 21);
  Mlp net({kLatticeFeatures, 16, 1}, 31);
  TrainOptions opt;
  opt.epochs = 25;
  auto hist = train_energy(net, data, opt);
  ASSERT_EQ(hist.epoch_loss.size(), 25u);
  EXPECT_LT(hist.epoch_loss.back(), 0.5 * hist.epoch_loss.front());
}

TEST(Training, SamAlsoConverges) {
  auto data = sample_ferro_dataset(6, 6, 0.05, 12, 5, 0.0, 22);
  Mlp net({kLatticeFeatures, 16, 1}, 32);
  TrainOptions opt;
  opt.epochs = 25;
  opt.sam_rho = 0.05;
  auto hist = train_energy(net, data, opt);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
}

TEST(Training, EmptyDatasetThrows) {
  Mlp net({kLatticeFeatures, 8, 1});
  EXPECT_THROW(train_energy(net, {}, {}), std::invalid_argument);
}

TEST(Tea, RecoversAffineTransform) {
  mlmd::Rng rng(41);
  std::vector<double> ref(20), src(20);
  for (std::size_t i = 0; i < 20; ++i) {
    ref[i] = rng.normal() * 10.0;
    src[i] = (ref[i] - 3.0) / 1.25; // ref = 1.25 * src + 3.0
  }
  auto t = tea_fit(src, ref);
  EXPECT_NEAR(t.scale, 1.25, 1e-9);
  EXPECT_NEAR(t.shift, 3.0, 1e-9);
}

TEST(Tea, UnifyAlignsAndMerges) {
  auto ref = sample_ferro_dataset(5, 5, 0.05, 10, 4, 0.0, 51);
  auto other = ref; // identical structures ...
  for (auto& s : other) s.energy = 2.0 * s.energy + 5.0; // ... shifted fidelity
  auto merged = tea_unify(ref, {other}, 6);
  ASSERT_EQ(merged.size(), ref.size() + other.size() - 6);
  // Aligned energies of the overlapping structures must match the ref.
  for (std::size_t i = 6; i < 10; ++i)
    EXPECT_NEAR(merged[ref.size() + (i - 6)].energy, ref[i].energy, 1e-9);
}

TEST(Tea, TooFewPairsThrows) {
  EXPECT_THROW(tea_fit({1.0}, {2.0}), std::invalid_argument);
}

TEST(Mixing, WeightSaturates) {
  EXPECT_DOUBLE_EQ(excitation_weight(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(excitation_weight(0.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(excitation_weight(5.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(excitation_weight(1.0, 0.0), 0.0);
}

TEST(Mixing, InterpolatesForces) {
  ferro::FerroLattice lat(4, 4);
  for (auto& u : lat.field()) u = {0.1, 0.2, 0.5};
  LatticeModel gs({8, 8}, 1), xs({8, 8}, 2);
  auto fg = gs.forces(lat);
  auto fx = xs.forces(lat);
  auto fm = xs_mixed_forces(gs, xs, lat, 0.5, 1.0);
  for (std::size_t i = 0; i < fm.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_NEAR(fm[i][static_cast<std::size_t>(c)],
                  0.5 * fg[i][static_cast<std::size_t>(c)] +
                      0.5 * fx[i][static_cast<std::size_t>(c)],
                  1e-12);
}

TEST(Fidelity, PowerlawExponentRecovered) {
  // Synthetic t = 100 * N^-0.3.
  std::vector<double> n = {100, 400, 1600, 6400};
  std::vector<double> t;
  for (double x : n) t.push_back(100.0 * std::pow(x, -0.3));
  EXPECT_NEAR(powerlaw_exponent(n, t), -0.3, 1e-6);
}

TEST(Fidelity, StableModelSurvivesLonger) {
  // A model with huge weight noise fails quickly; with none it survives.
  auto data = sample_ferro_dataset(6, 6, 0.05, 10, 4, 0.0, 61);
  LatticeModel model({12, 12}, 71);
  TrainOptions topt;
  topt.epochs = 15;
  train_energy(model.net(), data, topt);

  ferro::FerroParams params;
  FailureOptions quiet;
  quiet.max_steps = 200;
  FailureOptions noisy = quiet;
  noisy.weight_noise = 3.0;
  const long t_quiet = time_to_failure(model, 8, 8, params, quiet);
  const long t_noisy = time_to_failure(model, 8, 8, params, noisy);
  EXPECT_GT(t_quiet, t_noisy);
}

// --- angular descriptors -----------------------------------------------------

qxmd::Atoms jittered(std::size_t n, double a0, unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(n, n, n, a0, 100.0);
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.25 * rng.normal();
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.box.wrap(atoms.pos(i));
  return atoms;
}

TEST(Angular, BasisLadderShape) {
  auto b = nnq::AngularBasis::make(3, 6.0, 0.05);
  EXPECT_EQ(b.size(), 6u); // 3 zeta x 2 lambda
  EXPECT_DOUBLE_EQ(b.channels[0].first, 1.0);
  EXPECT_DOUBLE_EQ(b.channels[4].first, 4.0);
  EXPECT_DOUBLE_EQ(b.channels[1].second, -1.0);
}

TEST(Angular, InvariantUnderTranslation) {
  auto atoms = jittered(3, 4.2, 1);
  auto basis = nnq::AngularBasis::make(2, 5.5, 0.05);
  qxmd::NeighborList nl(atoms, basis.rc);
  std::vector<double> d1(atoms.n() * basis.size());
  nnq::angular_descriptors(atoms, nl, basis, d1, basis.size(), 0);

  for (std::size_t i = 0; i < atoms.n(); ++i) {
    atoms.pos(i)[1] += 2.3;
    atoms.box.wrap(atoms.pos(i));
  }
  qxmd::NeighborList nl2(atoms, basis.rc);
  std::vector<double> d2(atoms.n() * basis.size());
  nnq::angular_descriptors(atoms, nl2, basis, d2, basis.size(), 0);
  for (std::size_t i = 0; i < d1.size(); ++i) EXPECT_NEAR(d1[i], d2[i], 1e-9);
}

TEST(Angular, ThreeAtomTriangleAnalytic) {
  // Equilateral triangle, side r0: one triplet per vertex with cos = 1/2.
  qxmd::Atoms atoms;
  atoms.resize(3);
  atoms.box = {40.0, 40.0, 40.0};
  const double r0 = 3.0;
  atoms.pos(0)[0] = 20.0;
  atoms.pos(0)[1] = 20.0;
  atoms.pos(1)[0] = 20.0 + r0;
  atoms.pos(1)[1] = 20.0;
  atoms.pos(2)[0] = 20.0 + 0.5 * r0;
  atoms.pos(2)[1] = 20.0 + 0.5 * std::sqrt(3.0) * r0;
  for (std::size_t i = 0; i < 3; ++i) atoms.pos(i)[2] = 20.0;

  nnq::AngularBasis basis;
  basis.rc = 6.0;
  basis.eta = 0.05;
  basis.channels = {{2.0, +1.0}};
  qxmd::NeighborList nl(atoms, basis.rc);
  std::vector<double> d(3, 0.0);
  nnq::angular_descriptors(atoms, nl, basis, d, 1, 0);

  const double fc = basis.fc(r0);
  const double expect = std::pow(2.0, -1.0) * std::pow(1.5, 2.0) *
                        std::exp(-basis.eta * 2.0 * r0 * r0) * fc * fc;
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(d[static_cast<std::size_t>(i)], expect, 1e-12);
}

TEST(Angular, ModelForcesMatchEnergyGradient) {
  auto atoms = jittered(2, 4.4, 2);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 5.5, 1.2),
                       nnq::AngularBasis::make(2, 5.5, 0.06), {10, 6}, 7);
  EXPECT_EQ(model.feature_width(), 4u + 4u);
  qxmd::NeighborList nl(atoms, 5.5);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);

  const double eps = 1e-5;
  for (std::size_t i : {0ul, 3ul, 6ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, 5.5);
      std::vector<double> tmp;
      const double ep = model.energy_forces(moved, nlp, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, 5.5);
      const double em = model.energy_forces(moved, nlm, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  2e-4) << i << "," << k;
    }
  }
}

TEST(Angular, NewtonsThirdLawWithTriplets) {
  auto atoms = jittered(3, 4.2, 3);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 5.0, 1.2),
                       nnq::AngularBasis::make(2, 5.0, 0.06), {8}, 9);
  qxmd::NeighborList nl(atoms, 5.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);
  double total[3] = {0, 0, 0};
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (int k = 0; k < 3; ++k) total[k] += f[3 * i + static_cast<std::size_t>(k)];
  for (double t : total) EXPECT_NEAR(t, 0.0, 1e-9);
}

// --- multi-species descriptors ---------------------------------------------------

qxmd::Atoms two_species_lattice(unsigned long long seed) {
  auto atoms = qxmd::make_cubic_lattice(3, 3, 3, 4.2, 100.0);
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.type[i] = i % 2;
  mlmd::Rng rng(seed);
  for (auto& x : atoms.r) x += 0.2 * rng.normal();
  return atoms;
}

TEST(MultiSpecies, DescriptorWidthAndChannels) {
  auto atoms = two_species_lattice(1);
  auto basis = nnq::RadialBasis::make(4, 1.5, 6.0, 1.2);
  qxmd::NeighborList nl(atoms, basis.rc);
  auto d1 = nnq::atom_descriptors(atoms, nl, basis, 1);
  auto d2 = nnq::atom_descriptors(atoms, nl, basis, 2);
  EXPECT_EQ(d1.size(), atoms.n() * 4);
  EXPECT_EQ(d2.size(), atoms.n() * 8);
  // Channel sum equals the species-blind descriptor.
  for (std::size_t i = 0; i < atoms.n(); ++i)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(d2[i * 8 + k] + d2[i * 8 + 4 + k], d1[i * 4 + k], 1e-10);
}

TEST(MultiSpecies, SpeciesSwapChangesEnergy) {
  auto atoms = two_species_lattice(2);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {10, 6}, 3, 2);
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  const double e1 = model.energy_forces(atoms, nl, f);
  std::swap(atoms.type[0], atoms.type[1]); // unlike species swapped
  const double e2 = model.energy_forces(atoms, nl, f);
  EXPECT_NE(e1, e2);
}

TEST(MultiSpecies, ForcesMatchEnergyGradient) {
  auto atoms = two_species_lattice(3);
  nnq::AtomModel model(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {10, 6}, 5, 2);
  qxmd::NeighborList nl(atoms, 6.0);
  std::vector<double> f;
  model.energy_forces(atoms, nl, f);
  const double eps = 1e-5;
  for (std::size_t i : {0ul, 7ul, 13ul}) {
    for (int k = 0; k < 3; ++k) {
      qxmd::Atoms moved = atoms;
      moved.pos(i)[k] += eps;
      qxmd::NeighborList nlp(moved, 6.0);
      std::vector<double> tmp;
      const double ep = model.energy_forces(moved, nlp, tmp);
      moved.pos(i)[k] -= 2 * eps;
      qxmd::NeighborList nlm(moved, 6.0);
      const double em = model.energy_forces(moved, nlm, tmp);
      EXPECT_NEAR(f[3 * i + static_cast<std::size_t>(k)], -(ep - em) / (2 * eps),
                  1e-4);
    }
  }
}

TEST(MultiSpecies, BadNtypesThrows) {
  EXPECT_THROW(nnq::AtomModel(nnq::RadialBasis::make(4, 1.5, 6.0, 1.2), {8}, 1, 0),
               std::invalid_argument);
}

} // namespace
