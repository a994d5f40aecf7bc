// Tests for the dense linear algebra substrate: parameterized-precision
// GEMM against a reference implementation, the BF16 accuracy ladder, the
// Hermitian Jacobi eigensolver, and orthonormalization.

#include <gtest/gtest.h>

#include <complex>
#include <tuple>

#include "mlmd/common/aligned.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/la/eig.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/la/matrix.hpp"
#include "mlmd/la/ortho.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"
#include "simd_targets.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::la;
using cd = std::complex<double>;
using cf = std::complex<float>;

template <class T>
void fill_random(Matrix<T>& m, mlmd::Rng& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if constexpr (std::is_arithmetic_v<T>)
      m.data()[i] = static_cast<T>(rng.normal());
    else
      m.data()[i] = T(static_cast<typename T::value_type>(rng.normal()),
                      static_cast<typename T::value_type>(rng.normal()));
  }
}

/// Reference triple-loop GEMM.
template <class T>
Matrix<T> ref_gemm(Trans ta, Trans tb, T alpha, const Matrix<T>& a,
                   const Matrix<T>& b, T beta, const Matrix<T>& c0) {
  auto opa = [&](std::size_t i, std::size_t j) -> T {
    if (ta == Trans::kN) return a(i, j);
    T v = a(j, i);
    if constexpr (!std::is_arithmetic_v<T>)
      if (ta == Trans::kC) v = std::conj(v);
    return v;
  };
  auto opb = [&](std::size_t i, std::size_t j) -> T {
    if (tb == Trans::kN) return b(i, j);
    T v = b(j, i);
    if constexpr (!std::is_arithmetic_v<T>)
      if (tb == Trans::kC) v = std::conj(v);
    return v;
  };
  const std::size_t m = ta == Trans::kN ? a.rows() : a.cols();
  const std::size_t k = ta == Trans::kN ? a.cols() : a.rows();
  const std::size_t n = tb == Trans::kN ? b.cols() : b.rows();
  Matrix<T> c(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      T acc{};
      for (std::size_t p = 0; p < k; ++p) acc += opa(i, p) * opb(p, j);
      c(i, j) = alpha * acc + beta * c0(i, j);
    }
  return c;
}

// ---- parameterized GEMM sweep over shapes and trans combinations --------
//
// Every case runs once per simd dispatch target (scalar plus whichever
// vector ISAs this host supports), so the shape/trans edge paths are
// exercised against each micro-kernel tile geometry.

struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
};

class GemmSweep
    : public ::testing::TestWithParam<std::tuple<GemmCase, mlmd::simd::Target>> {
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

private:
  mlmd::simd::Target prev_ = mlmd::simd::Target::kScalar;
};

TEST_P(GemmSweep, ComplexDoubleMatchesReference) {
  const auto& p = std::get<0>(GetParam());
  mlmd::Rng rng(17);
  Matrix<cd> a(p.ta == Trans::kN ? p.m : p.k, p.ta == Trans::kN ? p.k : p.m);
  Matrix<cd> b(p.tb == Trans::kN ? p.k : p.n, p.tb == Trans::kN ? p.n : p.k);
  Matrix<cd> c(p.m, p.n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  const cd alpha(1.3, -0.4), beta(0.5, 0.2);
  auto expect = ref_gemm(p.ta, p.tb, alpha, a, b, beta, c);
  gemm(p.ta, p.tb, alpha, a, b, beta, c);
  EXPECT_LT(max_abs_diff(c, expect), 1e-10 * static_cast<double>(p.k + 1));
}

TEST_P(GemmSweep, RealDoubleMatchesReference) {
  const auto& p = std::get<0>(GetParam());
  if (p.ta == Trans::kC || p.tb == Trans::kC) GTEST_SKIP() << "conj == T for real";
  mlmd::Rng rng(18);
  Matrix<double> a(p.ta == Trans::kN ? p.m : p.k, p.ta == Trans::kN ? p.k : p.m);
  Matrix<double> b(p.tb == Trans::kN ? p.k : p.n, p.tb == Trans::kN ? p.n : p.k);
  Matrix<double> c(p.m, p.n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  auto expect = ref_gemm(p.ta, p.tb, 2.0, a, b, -1.0, c);
  gemm(p.ta, p.tb, 2.0, a, b, -1.0, c);
  EXPECT_LT(max_abs_diff(c, expect), 1e-10 * static_cast<double>(p.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Combine(
        ::testing::Values(GemmCase{1, 1, 1, Trans::kN, Trans::kN},
                          GemmCase{4, 4, 4, Trans::kN, Trans::kN},
                          GemmCase{5, 3, 7, Trans::kN, Trans::kN},
                          GemmCase{5, 3, 7, Trans::kT, Trans::kN},
                          GemmCase{5, 3, 7, Trans::kN, Trans::kT},
                          GemmCase{5, 3, 7, Trans::kC, Trans::kN},
                          GemmCase{5, 3, 7, Trans::kN, Trans::kC},
                          GemmCase{5, 3, 7, Trans::kC, Trans::kC},
                          GemmCase{64, 64, 64, Trans::kN, Trans::kN},
                          GemmCase{64, 64, 64, Trans::kC, Trans::kN},
                          GemmCase{130, 70, 129, Trans::kN, Trans::kN},
                          GemmCase{33, 65, 200, Trans::kC, Trans::kT}),
        ::testing::ValuesIn(mlmd::testing::kAllSimdTargets)),
    [](const auto& info) {
      return "case" + std::to_string(info.index) + "_" +
             mlmd::simd::target_name(std::get<1>(info.param));
    });

// ---- exhaustive engine validation ----------------------------------------
//
// The packed engine has edge paths at every blocking boundary (MR/NR
// tile remainders, kMC row-panel remainders, kKC reduction splits, empty
// dimensions). Sweep the full shape cross-product over sizes that hit
// each of them, for every trans pair.

constexpr std::size_t kEdgeSizes[] = {0, 1, 5, 64, 65, 129};
constexpr Trans kAllTrans[] = {Trans::kN, Trans::kT, Trans::kC};

template <class T>
void exhaustive_shape_sweep(T alpha, T beta, double tol_scale) {
  mlmd::Rng rng(41);
  for (std::size_t m : kEdgeSizes)
    for (std::size_t n : kEdgeSizes)
      for (std::size_t k : kEdgeSizes)
        for (Trans ta : kAllTrans)
          for (Trans tb : kAllTrans) {
            if constexpr (std::is_arithmetic_v<T>)
              if (ta == Trans::kC || tb == Trans::kC) continue;
            Matrix<T> a(ta == Trans::kN ? m : k, ta == Trans::kN ? k : m);
            Matrix<T> b(tb == Trans::kN ? k : n, tb == Trans::kN ? n : k);
            Matrix<T> c(m, n);
            fill_random(a, rng);
            fill_random(b, rng);
            fill_random(c, rng);
            auto expect = ref_gemm(ta, tb, alpha, a, b, beta, c);
            gemm(ta, tb, alpha, a, b, beta, c);
            ASSERT_LT(max_abs_diff(c, expect),
                      tol_scale * static_cast<double>(k + 1))
                << "m=" << m << " n=" << n << " k=" << k
                << " ta=" << static_cast<int>(ta)
                << " tb=" << static_cast<int>(tb);
          }
}

class GemmExhaustive : public mlmd::testing::SimdTargetTest {};

TEST_P(GemmExhaustive, ShapeSweepDouble) {
  exhaustive_shape_sweep<double>(1.7, -0.6, 1e-10);
}

TEST_P(GemmExhaustive, ShapeSweepComplexDouble) {
  exhaustive_shape_sweep<cd>(cd(1.3, -0.4), cd(0.5, 0.2), 1e-10);
}

TEST_P(GemmExhaustive, ShapeSweepFloat) {
  exhaustive_shape_sweep<float>(1.7f, -0.6f, 2e-4);
}

TEST_P(GemmExhaustive, ShapeSweepComplexFloat) {
  exhaustive_shape_sweep<cf>(cf(1.3f, -0.4f), cf(0.5f, 0.2f), 4e-4);
}

INSTANTIATE_TEST_SUITE_P(Targets, GemmExhaustive,
                         ::testing::ValuesIn(mlmd::testing::kAllSimdTargets),
                         mlmd::testing::SimdTargetName{});

// alpha/beta cross-product (incl. the alpha == 0 and beta == 0 special
// paths, which must still apply beta / overwrite C) on a shape subset
// across all four precisions.
template <class T>
struct real_of {
  using type = T;
};
template <class R>
struct real_of<std::complex<R>> {
  using type = R;
};

template <class T>
void alpha_beta_sweep(double tol_scale) {
  using R = typename real_of<T>::type;
  mlmd::Rng rng(43);
  const R coefs[] = {R{0}, R{1}, R{-0.5}};
  const std::size_t shapes[][3] = {{5, 3, 7}, {65, 33, 129}};
  const Trans pairs[][2] = {{Trans::kN, Trans::kN}, {Trans::kT, Trans::kT}};
  for (const auto& s : shapes)
    for (const auto& tp : pairs)
      for (R av : coefs)
        for (R bv : coefs) {
          const std::size_t m = s[0], n = s[1], k = s[2];
          const Trans ta = tp[0], tb = tp[1];
          const T alpha(av), beta(bv);
          Matrix<T> a(ta == Trans::kN ? m : k, ta == Trans::kN ? k : m);
          Matrix<T> b(tb == Trans::kN ? k : n, tb == Trans::kN ? n : k);
          Matrix<T> c(m, n);
          fill_random(a, rng);
          fill_random(b, rng);
          fill_random(c, rng);
          auto expect = ref_gemm(ta, tb, alpha, a, b, beta, c);
          gemm(ta, tb, alpha, a, b, beta, c);
          ASSERT_LT(max_abs_diff(c, expect),
                    tol_scale * static_cast<double>(k + 1))
              << "alpha=" << static_cast<double>(av)
              << " beta=" << static_cast<double>(bv) << " k=" << k;
        }
}

class GemmAlphaBeta : public mlmd::testing::SimdTargetTest {};

TEST_P(GemmAlphaBeta, Double) { alpha_beta_sweep<double>(1e-10); }
TEST_P(GemmAlphaBeta, ComplexDouble) { alpha_beta_sweep<cd>(1e-10); }
TEST_P(GemmAlphaBeta, Float) { alpha_beta_sweep<float>(2e-4); }
TEST_P(GemmAlphaBeta, ComplexFloat) { alpha_beta_sweep<cf>(4e-4); }

INSTANTIATE_TEST_SUITE_P(Targets, GemmAlphaBeta,
                         ::testing::ValuesIn(mlmd::testing::kAllSimdTargets),
                         mlmd::testing::SimdTargetName{});

// Determinism contract (gemm.hpp): results are bit-identical for any
// thread count, because tile decomposition and accumulation order depend
// only on shapes — independently of which micro-kernel ISA is active.
class GemmDeterminism : public mlmd::testing::SimdTargetTest {};

TEST_P(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  const int nthr0 = mlmd::par::num_threads();
  mlmd::Rng rng(47);
  Matrix<double> a(65, 129), b(129, 65), c0(65, 65);
  Matrix<cd> za(129, 65), zb(65, 129), zc0(65, 65); // stored op-shapes for kC/kT
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  fill_random(za, rng);
  fill_random(zb, rng);
  fill_random(zc0, rng);

  Matrix<double> c_ref;
  Matrix<cd> zc_ref;
  bool first = true;
  for (int threads : {1, 2, 7}) {
    mlmd::par::ThreadPool::set_global_threads(threads);
    Matrix<double> c = c0;
    Matrix<cd> zc = zc0;
    gemm(Trans::kN, Trans::kN, 1.5, a, b, -0.5, c);
    gemm(Trans::kC, Trans::kT, cd(1.5, 0.25), za, zb, cd(-0.5, 1.0), zc);
    if (first) {
      c_ref = c;
      zc_ref = zc;
      first = false;
    } else {
      EXPECT_EQ(c, c_ref) << "threads=" << threads;
      EXPECT_EQ(zc, zc_ref) << "threads=" << threads;
    }
  }
  mlmd::par::ThreadPool::set_global_threads(nthr0);
}

INSTANTIATE_TEST_SUITE_P(Targets, GemmDeterminism,
                         ::testing::ValuesIn(mlmd::testing::kAllSimdTargets),
                         mlmd::testing::SimdTargetName{});

// ---- 64-byte alignment contract (aligned.hpp) ---------------------------
//
// Packed B panels and accumulator tiles start on 64-byte boundaries, so
// no vector load of a panel row splits a cache line (a speed property:
// the micro-kernels' loads are unaligned); these tests pin the
// allocation-side guarantees instead of trusting them.

TEST(Alignment, WorkspaceScratchIs64ByteAligned) {
  auto& ws = mlmd::common::Workspace::local();
  mlmd::common::Workspace::Frame frame(ws);
  // Odd element counts are the interesting case: every subsequent get<>()
  // must still land on a 64 B boundary because raw() rounds sizes up.
  for (std::size_t n : {1u, 3u, 7u, 63u, 65u, 1000u}) {
    EXPECT_TRUE(mlmd::is_aligned(ws.get<char>(n))) << "n=" << n;
    EXPECT_TRUE(mlmd::is_aligned(ws.get<double>(n))) << "n=" << n;
    EXPECT_TRUE(mlmd::is_aligned(ws.get<cf>(n))) << "n=" << n;
  }
}

TEST(Alignment, MatrixStorageIs64ByteAligned) {
  Matrix<double> d(7, 13);
  Matrix<cf> z(5, 3);
  EXPECT_TRUE(mlmd::is_aligned(d.data()));
  EXPECT_TRUE(mlmd::is_aligned(z.data()));
}

TEST(Alignment, PackedPanelStridesAre64ByteMultiples) {
  // For every supported target: the per-k-step packed-B row is
  // NR * (reals per coefficient) * sizeof(real) bytes, and must be a
  // multiple of 64 so each k step's B row starts a cache line; the
  // register tile must fit the dispatch-independent accumulator bound.
  for (auto t : mlmd::simd::supported_targets()) {
    mlmd::testing::ScopedSimdTarget guard(t);
    const auto& kt = mlmd::simd::kernels();
    EXPECT_EQ(kt.target, t);
    EXPECT_EQ(kt.sgemm.nr * sizeof(float) % mlmd::kSimdAlign, 0u);
    EXPECT_EQ(kt.dgemm.nr * sizeof(double) % mlmd::kSimdAlign, 0u);
    EXPECT_EQ(kt.cgemm.nr * 2 * sizeof(float) % mlmd::kSimdAlign, 0u);
    EXPECT_EQ(kt.zgemm.nr * 2 * sizeof(double) % mlmd::kSimdAlign, 0u);
    EXPECT_LE(kt.sgemm.mr * kt.sgemm.nr, mlmd::simd::kMaxAccElems);
    EXPECT_LE(kt.dgemm.mr * kt.dgemm.nr, mlmd::simd::kMaxAccElems);
    EXPECT_LE(kt.cgemm.mr * kt.cgemm.nr, mlmd::simd::kMaxAccElems);
    EXPECT_LE(kt.zgemm.mr * kt.zgemm.nr, mlmd::simd::kMaxAccElems);
  }
}

// Steady state is allocation-free: after a warm-up call, repeated gemms
// with the same shapes never touch the heap (Workspace arena contract).
TEST(GemmWorkspace, SteadyStateAllocFree) {
  mlmd::Rng rng(53);
  Matrix<double> a(129, 129), b(129, 129), c(129, 129);
  Matrix<cf> za(129, 129), zb(129, 129), zc(129, 129);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(za, rng);
  fill_random(zb, rng);
  auto run = [&] {
    gemm(Trans::kN, Trans::kT, 1.0, a, b, 0.0, c);
    gemm_mixed(ComputeMode::kBF16x2, Trans::kC, Trans::kN, cf(1.0f, 0.0f), za,
               zb, cf{}, zc);
  };
  run(); // warm-up: arena growth allowed here only
  const auto allocs = mlmd::common::Workspace::total_heap_allocs();
  for (int i = 0; i < 3; ++i) run();
  EXPECT_EQ(mlmd::common::Workspace::total_heap_allocs(), allocs);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 6), c(3, 6);
  EXPECT_THROW(gemm(Trans::kN, Trans::kN, 1.0, a, b, 0.0, c),
               std::invalid_argument);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix<double> a(2, 2), b(2, 2), c(2, 2);
  a(0, 0) = 1;
  a(1, 1) = 1;
  b(0, 0) = 3;
  b(1, 1) = 4;
  c.fill(std::numeric_limits<double>::quiet_NaN());
  gemm(Trans::kN, Trans::kN, 1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

// ---- BF16 mixed-precision ladder ----------------------------------------

class Bf16Ladder : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Bf16Ladder, AccuracyImprovesWithComponents) {
  const std::size_t n = GetParam();
  mlmd::Rng rng(23);
  Matrix<cf> a(n, n), b(n, n);
  fill_random(a, rng);
  fill_random(b, rng);

  Matrix<cf> c_ref(n, n), c1(n, n), c2(n, n), c3(n, n);
  const cf one(1.0f, 0.0f), zero{};
  gemm(Trans::kC, Trans::kN, one, a, b, zero, c_ref);
  gemm_mixed(ComputeMode::kBF16, Trans::kC, Trans::kN, one, a, b, zero, c1);
  gemm_mixed(ComputeMode::kBF16x2, Trans::kC, Trans::kN, one, a, b, zero, c2);
  gemm_mixed(ComputeMode::kBF16x3, Trans::kC, Trans::kN, one, a, b, zero, c3);

  const double e1 = max_abs_diff(c1, c_ref);
  const double e2 = max_abs_diff(c2, c_ref);
  const double e3 = max_abs_diff(c3, c_ref);
  EXPECT_GT(e1, 0.0);
  EXPECT_LT(e2, e1);
  EXPECT_LE(e3, e2);
  // BF16x3 is "comparable to standard single precision" (paper Sec. VI.C).
  EXPECT_LT(e3, 1e-4 * std::sqrt(static_cast<double>(n)));
  // Plain BF16 relative error stays bounded by its 2^-8 mantissa.
  EXPECT_LT(e1 / (fro_norm(c_ref) / n + 1e-30), 0.2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Bf16Ladder, ::testing::Values(4, 16, 48, 96));

TEST(Bf16Gemm, NativeModeIdentical) {
  mlmd::Rng rng(29);
  Matrix<cf> a(8, 8), b(8, 8), c1(8, 8), c2(8, 8);
  fill_random(a, rng);
  fill_random(b, rng);
  const cf one(1.0f, 0.0f), zero{};
  gemm(Trans::kN, Trans::kN, one, a, b, zero, c1);
  gemm_mixed(ComputeMode::kNative, Trans::kN, Trans::kN, one, a, b, zero, c2);
  EXPECT_EQ(c1, c2);
}

// ---- eigensolver ---------------------------------------------------------

class EigSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigSweep, RandomHermitianResidual) {
  const std::size_t n = GetParam();
  mlmd::Rng rng(31 + n);
  Matrix<cd> h(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    h(i, i) = rng.normal();
    for (std::size_t j = i + 1; j < n; ++j) {
      h(i, j) = cd(rng.normal(), rng.normal());
      h(j, i) = std::conj(h(i, j));
    }
  }
  auto r = eigh(h);
  // Residual ||H v - lambda v|| per eigenpair.
  for (std::size_t q = 0; q < n; ++q) {
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cd acc{};
      for (std::size_t j = 0; j < n; ++j) acc += h(i, j) * r.vectors(j, q);
      acc -= r.values[q] * r.vectors(i, q);
      res += std::norm(acc);
    }
    EXPECT_LT(std::sqrt(res), 1e-8) << "eigenpair " << q;
  }
  // Eigenvalues ascending.
  for (std::size_t q = 1; q < n; ++q) EXPECT_LE(r.values[q - 1], r.values[q] + 1e-12);
  // Eigenvectors orthonormal.
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) {
      cd acc{};
      for (std::size_t i = 0; i < n; ++i)
        acc += std::conj(r.vectors(i, p)) * r.vectors(i, q);
      EXPECT_NEAR(std::abs(acc), p == q ? 1.0 : 0.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSweep, ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(Eig, KnownPauliX) {
  Matrix<cd> h(2, 2);
  h(0, 1) = 1.0;
  h(1, 0) = 1.0;
  auto r = eigh(h);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 1.0, 1e-12);
}

TEST(Eig, DiagonalMatrix) {
  Matrix<cd> h(3, 3);
  h(0, 0) = 3.0;
  h(1, 1) = 1.0;
  h(2, 2) = 2.0;
  auto r = eigh(h);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Eig, NonSquareThrows) {
  Matrix<cd> h(2, 3);
  EXPECT_THROW(eigh(h), std::invalid_argument);
}

TEST(Eig, RealSymmetricWrapper) {
  Matrix<double> h(2, 2);
  h(0, 0) = 2.0;
  h(0, 1) = 1.0;
  h(1, 0) = 1.0;
  h(1, 1) = 2.0;
  auto r = eigh(h);
  EXPECT_NEAR(r.values[0], 1.0, 1e-10);
  EXPECT_NEAR(r.values[1], 3.0, 1e-10);
}

// ---- orthonormalization --------------------------------------------------

TEST(Ortho, MgsProducesOrthonormalSet) {
  mlmd::Rng rng(37);
  const double dv = 0.125;
  Matrix<cd> psi(200, 6);
  fill_random(psi, rng);
  mgs_orthonormalize(psi, dv);
  EXPECT_LT(orthonormality_error(psi, dv), 1e-10);
}

TEST(Matrix, FroNormKnownValue) {
  la::Matrix<double> m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(la::fro_norm(m), 5.0);
}

} // namespace
