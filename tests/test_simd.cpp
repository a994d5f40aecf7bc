// Tests for mlmd::simd (DESIGN.md Sec. 12): cpuid capability probing,
// target parsing/dispatch control, and the bit-identity contract that
// makes runtime dispatch safe — every host-supported vector target must
// produce BYTE-identical kernel, GEMM / gemm_mixed / kin_prop / vloc_prop
// results to the scalar table. `ctest -L simd` runs this binary; targets
// the host or build cannot run are skipped with a note.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/la/matrix.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/lfd/wavefunction.hpp"
#include "mlmd/simd/simd.hpp"
#include "simd_targets.hpp"

namespace {

using namespace mlmd;
using mlmd::testing::ScopedSimdTarget;
using cf = std::complex<float>;
using cd = std::complex<double>;

template <class T>
void fill_random(la::Matrix<T>& m, Rng& rng) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if constexpr (std::is_arithmetic_v<T>)
      m.data()[i] = static_cast<T>(rng.normal());
    else
      m.data()[i] = T(static_cast<typename T::value_type>(rng.normal()),
                      static_cast<typename T::value_type>(rng.normal()));
  }
}

template <class T>
bool bitwise_equal(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// ---- capability probing and dispatch control ----------------------------

TEST(SimdCaps, StringsMatchProbedFlags) {
  const auto& c = simd::caps();
  const auto strs = simd::caps_strings();
  auto has = [&](const char* name) {
    for (const auto& s : strs)
      if (s == name) return true;
    return false;
  };
  EXPECT_EQ(has("avx2"), c.avx2);
  EXPECT_EQ(has("fma"), c.fma);
  EXPECT_EQ(has("avx512f"), c.avx512f);
  EXPECT_EQ(has("avx512_bf16"), c.avx512bf16);
}

TEST(SimdCaps, ScalarAlwaysSupportedAndFirst) {
  EXPECT_TRUE(simd::target_supported(simd::Target::kScalar));
  const auto ts = simd::supported_targets();
  ASSERT_FALSE(ts.empty());
  EXPECT_EQ(ts.front(), simd::Target::kScalar);
  EXPECT_TRUE(simd::target_supported(simd::best_supported()));
}

TEST(SimdParse, NamesRoundTrip) {
  EXPECT_EQ(simd::parse_target("scalar"), simd::Target::kScalar);
  EXPECT_EQ(simd::parse_target("avx2"), simd::Target::kAvx2);
  EXPECT_EQ(simd::parse_target("avx512"), simd::Target::kAvx512);
  EXPECT_EQ(simd::parse_target("native"), simd::best_supported());
  for (const auto& [name, value] : simd::kTargetChoices)
    EXPECT_EQ(simd::parse_target(name), value);
  EXPECT_THROW(simd::parse_target("sse42"), std::invalid_argument);
  EXPECT_THROW(simd::parse_target(""), std::invalid_argument);
}

TEST(SimdDispatch, SetTargetRoundTrip) {
  const auto prev = simd::active_target();
  for (auto t : simd::supported_targets()) {
    simd::set_target(t);
    EXPECT_EQ(simd::active_target(), t);
    EXPECT_EQ(simd::kernels().target, t);
  }
  simd::set_target(prev);
}

TEST(SimdDispatch, UnsupportedTargetThrowsClearError) {
  bool found_unsupported = false;
  for (auto t : mlmd::testing::kAllSimdTargets) {
    if (simd::target_supported(t)) continue;
    found_unsupported = true;
    EXPECT_THROW(simd::set_target(t), std::runtime_error);
  }
  if (!found_unsupported)
    GTEST_SKIP() << "every target is supported on this host/build";
}

TEST(SimdDispatch, TileShapesArePositive) {
  for (auto t : simd::supported_targets()) {
    ScopedSimdTarget guard(t);
    const auto& kt = simd::kernels();
    EXPECT_GT(kt.sgemm.mr * kt.sgemm.nr, 0u);
    EXPECT_GT(kt.dgemm.mr * kt.dgemm.nr, 0u);
    EXPECT_GT(kt.cgemm.mr * kt.cgemm.nr, 0u);
    EXPECT_GT(kt.zgemm.mr * kt.zgemm.nr, 0u);
    EXPECT_NE(kt.rotate_f, nullptr);
    EXPECT_NE(kt.rotate_d, nullptr);
    EXPECT_NE(kt.phase_f, nullptr);
    EXPECT_NE(kt.phase_d, nullptr);
    EXPECT_NE(kt.pack_f, nullptr);
    EXPECT_NE(kt.pack_d, nullptr);
    EXPECT_NE(kt.ferro_row, nullptr);
    EXPECT_NE(kt.tanh_n, nullptr);
    EXPECT_NE(kt.mlp_grad_rows, nullptr);
    EXPECT_NE(kt.any_above, nullptr);
  }
}

// Each table points at its own target's code. A kernel template left
// without its Target key would be instantiated under the same name in
// several table TUs, and the linker would keep one copy, built with one
// TU's -m flags, for every table: on this host it would pass unnoticed,
// and on a host without that ISA it would fault. Only the AVX-512 table's
// ferro row is the AVX2 one by design.
TEST(SimdDispatch, TablesHoldTheirOwnKernels) {
  const auto slots = [](const simd::KernelTable& k) {
    const auto p = [](auto fn) { return reinterpret_cast<const void*>(fn); };
    return std::vector<std::pair<const char*, const void*>>{
        {"sgemm", p(k.sgemm.fn)},         {"dgemm", p(k.dgemm.fn)},
        {"cgemm", p(k.cgemm.fn)},         {"zgemm", p(k.zgemm.fn)},
        {"rotate_f", p(k.rotate_f)},      {"rotate_d", p(k.rotate_d)},
        {"phase_f", p(k.phase_f)},        {"phase_d", p(k.phase_d)},
        {"pack_f", p(k.pack_f)},          {"pack_d", p(k.pack_d)},
        {"ferro_row", p(k.ferro_row)},    {"tanh_n", p(k.tanh_n)},
        {"mlp_grad_rows", p(k.mlp_grad_rows)},
        {"any_above", p(k.any_above)}};
  };
  const auto ts = simd::supported_targets();
  if (ts.size() < 2) GTEST_SKIP() << "only the scalar table is supported";
  std::vector<simd::KernelTable> tables;
  for (auto t : ts) {
    ScopedSimdTarget guard(t);
    tables.push_back(simd::kernels());
  }
  for (std::size_t a = 0; a < ts.size(); ++a)
    for (std::size_t b = a + 1; b < ts.size(); ++b) {
      const auto sa = slots(tables[a]), sb = slots(tables[b]);
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        const bool shared = std::string(sa[i].first) == "ferro_row" &&
                            ts[a] == simd::Target::kAvx2 &&
                            ts[b] == simd::Target::kAvx512;
        if (shared)
          EXPECT_EQ(sa[i].second, sb[i].second) << "ferro_row";
        else
          EXPECT_NE(sa[i].second, sb[i].second)
              << sa[i].first << ": " << simd::target_name(ts[a]) << " and "
              << simd::target_name(ts[b]) << " share code";
      }
    }
}

// ---- panel-packer bit-identity across targets ----------------------------
//
// PackPanelFn contract (simd.hpp): dst[p*W+j] = alpha*src[p*ld+j] for
// j < w, zero for j in [w, W), alpha == 1 a plain copy. Swept over full
// rows, vector tails, and zero-pad columns; every target must match the
// scalar reference bytewise, and alpha == 1 must preserve payload bits
// (checked with a NaN payload that a multiply could quiet or perturb).
template <class R>
void pack_panel_bitwise_across_targets() {
  Rng rng(131);
  // (ld, kc, w, W): full vectors, sub-vector tails, and heavy padding.
  const std::size_t shapes[][4] = {
      {40, 7, 32, 32}, {40, 7, 33, 40}, {17, 5, 3, 16}, {64, 1, 1, 8}};
  for (const auto& s : shapes) {
    const std::size_t ld = s[0], kc = s[1], w = s[2], W = s[3];
    std::vector<R> src(ld * kc);
    for (auto& v : src) v = static_cast<R>(rng.normal());
    // A NaN payload in-column: alpha == 1 must pass its bits through.
    src[w / 2] = std::numeric_limits<R>::quiet_NaN();
    for (R alpha : {R{1}, static_cast<R>(-1.7)}) {
      std::vector<R> ref(W * kc);
      {
        ScopedSimdTarget guard(simd::Target::kScalar);
        std::memset(ref.data(), 0xab, ref.size() * sizeof(R));
        simd::pack_fn<R>()(src.data(), ld, kc, alpha, w, W, ref.data());
      }
      // Scalar semantics check (including that the 0xab fill is gone
      // from the zero-pad columns and the NaN survived alpha == 1).
      for (std::size_t p = 0; p < kc; ++p)
        for (std::size_t j = w; j < W; ++j) EXPECT_EQ(ref[p * W + j], R{});
      if (alpha == R{1}) {
        R got = ref[w / 2];
        R want = src[w / 2];
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(R)), 0);
      }
      for (auto t : simd::supported_targets()) {
        ScopedSimdTarget guard(t);
        std::vector<R> dst(W * kc);
        std::memset(dst.data(), 0xab, dst.size() * sizeof(R));
        simd::pack_fn<R>()(src.data(), ld, kc, alpha, w, W, dst.data());
        EXPECT_EQ(std::memcmp(dst.data(), ref.data(), dst.size() * sizeof(R)),
                  0)
            << "target=" << simd::target_name(t) << " ld=" << ld
            << " kc=" << kc << " w=" << w << " W=" << W
            << " alpha=" << alpha;
      }
    }
  }
}

TEST(SimdBitIdentity, PackPanelFloat) {
  pack_panel_bitwise_across_targets<float>();
}
TEST(SimdBitIdentity, PackPanelDouble) {
  pack_panel_bitwise_across_targets<double>();
}

// ---- GEMM bit-identity across targets -----------------------------------
//
// The dispatch contract (simd.hpp): every kernel variant reduces k in
// ascending order with one accumulator per C element and never fuses
// multiply-add, so the scalar and vectorized paths round identically.
// Asserted bytewise over shapes that hit full tiles, tile remainders,
// and multiple kKC reduction panels.

template <class T>
void gemm_bitwise_across_targets(T alpha, T beta, la::Trans ta, la::Trans tb) {
  Rng rng(97);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {5, 3, 7}, {64, 64, 64}, {65, 33, 129}, {130, 70, 300}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    la::Matrix<T> a(ta == la::Trans::kN ? m : k, ta == la::Trans::kN ? k : m);
    la::Matrix<T> b(tb == la::Trans::kN ? k : n, tb == la::Trans::kN ? n : k);
    la::Matrix<T> c0(m, n);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c0, rng);

    la::Matrix<T> ref;
    {
      ScopedSimdTarget guard(simd::Target::kScalar);
      ref = c0;
      la::gemm(ta, tb, alpha, a, b, beta, ref);
    }
    for (auto t : simd::supported_targets()) {
      ScopedSimdTarget guard(t);
      la::Matrix<T> c = c0;
      la::gemm(ta, tb, alpha, a, b, beta, c);
      EXPECT_TRUE(bitwise_equal(c, ref))
          << "target=" << simd::target_name(t) << " m=" << m << " n=" << n
          << " k=" << k;
    }
  }
}

TEST(SimdBitIdentity, GemmFloat) {
  gemm_bitwise_across_targets<float>(1.7f, -0.6f, la::Trans::kN, la::Trans::kN);
  gemm_bitwise_across_targets<float>(1.0f, 0.0f, la::Trans::kT, la::Trans::kN);
}

TEST(SimdBitIdentity, GemmDouble) {
  gemm_bitwise_across_targets<double>(1.7, -0.6, la::Trans::kN, la::Trans::kN);
  gemm_bitwise_across_targets<double>(1.0, 0.0, la::Trans::kN, la::Trans::kT);
}

TEST(SimdBitIdentity, GemmComplexFloat) {
  gemm_bitwise_across_targets<cf>(cf(1.3f, -0.4f), cf(0.5f, 0.2f),
                                  la::Trans::kN, la::Trans::kN);
  gemm_bitwise_across_targets<cf>(cf(1.0f, 0.0f), cf{}, la::Trans::kC,
                                  la::Trans::kN);
}

TEST(SimdBitIdentity, GemmComplexDouble) {
  gemm_bitwise_across_targets<cd>(cd(1.3, -0.4), cd(0.5, 0.2), la::Trans::kN,
                                  la::Trans::kN);
  gemm_bitwise_across_targets<cd>(cd(1.0, 0.0), cd{}, la::Trans::kC,
                                  la::Trans::kT);
}

TEST(SimdBitIdentity, GemmMixedBf16Modes) {
  // The BF16 ladder splits planes into FP32 GEMMs, so it inherits the
  // real-kernel bit-identity — per mode and bytewise.
  Rng rng(101);
  la::Matrix<cf> a(65, 40), b(65, 33), c0(40, 33);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const cf alpha(1.1f, -0.3f), beta(0.4f, 0.2f);
  for (la::ComputeMode mode :
       {la::ComputeMode::kNative, la::ComputeMode::kBF16,
        la::ComputeMode::kBF16x2, la::ComputeMode::kBF16x3}) {
    la::Matrix<cf> ref;
    {
      ScopedSimdTarget guard(simd::Target::kScalar);
      ref = c0;
      la::gemm_mixed(mode, la::Trans::kC, la::Trans::kN, alpha, a, b, beta, ref);
    }
    for (auto t : simd::supported_targets()) {
      ScopedSimdTarget guard(t);
      la::Matrix<cf> c = c0;
      la::gemm_mixed(mode, la::Trans::kC, la::Trans::kN, alpha, a, b, beta, c);
      EXPECT_TRUE(bitwise_equal(c, ref))
          << "target=" << simd::target_name(t)
          << " mode=" << static_cast<int>(mode);
    }
  }
}

// ---- LFD stencil bit-identity across targets ----------------------------

template <class Real>
void kin_prop_bitwise_across_targets(lfd::KinVariant variant) {
  grid::Grid3 g{8, 8, 8, 0.6, 0.6, 0.6};
  lfd::SoAWave<Real> w0(g, 5);
  lfd::init_plane_waves(w0);
  lfd::KinParams p;
  p.dt = 0.04;
  p.a[0] = 0.2; // Peierls phases on: complex bond coefficients exercised
  p.a[2] = -0.1;

  la::Matrix<std::complex<Real>> ref;
  {
    ScopedSimdTarget guard(simd::Target::kScalar);
    lfd::SoAWave<Real> w(g, 5);
    w.psi = w0.psi;
    for (int i = 0; i < 3; ++i) lfd::kin_prop(w, p, variant);
    ref = w.psi;
  }
  for (auto t : simd::supported_targets()) {
    ScopedSimdTarget guard(t);
    lfd::SoAWave<Real> w(g, 5);
    w.psi = w0.psi;
    for (int i = 0; i < 3; ++i) lfd::kin_prop(w, p, variant);
    EXPECT_TRUE(bitwise_equal(w.psi, ref))
        << "target=" << simd::target_name(t)
        << " variant=" << static_cast<int>(variant);
  }
}

TEST(SimdBitIdentity, KinPropDouble) {
  for (lfd::KinVariant v :
       {lfd::KinVariant::kBaseline, lfd::KinVariant::kReordered,
        lfd::KinVariant::kBlocked, lfd::KinVariant::kParallel})
    kin_prop_bitwise_across_targets<double>(v);
}

TEST(SimdBitIdentity, KinPropFloat) {
  for (lfd::KinVariant v :
       {lfd::KinVariant::kBlocked, lfd::KinVariant::kParallel})
    kin_prop_bitwise_across_targets<float>(v);
}

template <class Real>
void vloc_bitwise_across_targets() {
  grid::Grid3 g{8, 8, 8, 0.6, 0.6, 0.6};
  lfd::SoAWave<Real> w0(g, 7); // odd norb: phase-kernel vector tails run
  lfd::init_plane_waves(w0);
  std::vector<double> v(g.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::sin(0.37 * static_cast<double>(i));

  la::Matrix<std::complex<Real>> ref;
  {
    ScopedSimdTarget guard(simd::Target::kScalar);
    lfd::SoAWave<Real> w(g, 7);
    w.psi = w0.psi;
    lfd::vloc_prop(w, v, 0.2);
    ref = w.psi;
  }
  for (auto t : simd::supported_targets()) {
    ScopedSimdTarget guard(t);
    lfd::SoAWave<Real> w(g, 7);
    w.psi = w0.psi;
    lfd::vloc_prop(w, v, 0.2);
    EXPECT_TRUE(bitwise_equal(w.psi, ref)) << "target=" << simd::target_name(t);
  }
}

TEST(SimdBitIdentity, VlocDouble) { vloc_bitwise_across_targets<double>(); }
TEST(SimdBitIdentity, VlocFloat) { vloc_bitwise_across_targets<float>(); }

// ---- LFD row kernels ----------------------------------------------------
//
// RotateRowsFn and PhaseRowFn (simd.hpp) called through each table: every
// row length n = 0 ... 33 (the empty row, every vector body and every
// tail of the float and double kernels), each target's bytes against the
// scalar table's, and one guard element past n that no target writes.
// Random finite rows run with generic coefficients and with -0.0 ones;
// signed zeros, NaNs and infinities run apart. A NaN gets one slot per
// orbital (of the four reals u_s, v_s a rotation mixes, or the two of a
// phase multiply), so no add meets two NaNs, whose result would depend
// on which operand the compiler put first; the default NaN an Inf makes
// has the same bits in either order.

enum class RowValues { kFinite, kZeros, kNaN, kInf };

/// n groups of `group` reals of one kind, plus `group` reals of 0xab
/// guard bytes.
template <class R>
std::vector<R> lfd_row_values(std::size_t n, std::size_t group, RowValues kind,
                              Rng& rng) {
  std::vector<R> x(group * (n + 1));
  for (std::size_t s = 0; s < n; ++s) {
    R* g = &x[group * s];
    for (std::size_t k = 0; k < group; ++k) g[k] = static_cast<R>(rng.normal());
    switch (kind) {
      case RowValues::kFinite: break;
      case RowValues::kZeros:
        for (std::size_t k = 0; k < group; ++k) g[k] = rng.uniform() < 0.5 ? R{0} : -R{0};
        break;
      case RowValues::kNaN:
        if (rng.uniform() < 0.6) {
          const R nan = std::numeric_limits<R>::quiet_NaN();
          g[static_cast<std::size_t>(rng.uniform() * group)] =
              rng.uniform() < 0.5 ? nan : -nan;
        }
        break;
      case RowValues::kInf:
        for (std::size_t k = 0; k < group; ++k)
          if (rng.uniform() < 0.3) {
            const R inf = std::numeric_limits<R>::infinity();
            g[k] = rng.uniform() < 0.5 ? inf : -inf;
          }
        break;
    }
  }
  std::memset(&x[group * n], 0xab, group * sizeof(R));
  return x;
}

template <class R>
void rotate_rows_bitwise_across_targets() {
  using C = std::complex<R>;
  const R nz = -R{0};
  // (cs, ar, ai, br, bi): generic values, then -0.0 in the slots whose sign
  // the kernel folds (ai, bi) and in the others.
  const R coeffs[][5] = {{R(0.93), R(0.21), R(-0.17), R(-0.19), R(0.23)},
                         {R(0.93), R(0.21), nz, R(-0.19), nz},
                         {nz, nz, R(0.4), nz, R(-0.3)}};
  for (const RowValues kind : {RowValues::kFinite, RowValues::kZeros,
                               RowValues::kNaN, RowValues::kInf})
    for (const auto& c : coeffs)
      for (std::size_t n = 0; n <= 33; ++n) {
        Rng rng(1000 * static_cast<std::uint64_t>(kind) + n);
        // Per orbital the group (ur, ui, vr, vi), split into the two rows.
        const auto g = lfd_row_values<R>(n, 4, kind, rng);
        std::vector<C> u0(n + 1), v0(n + 1);
        for (std::size_t s = 0; s <= n; ++s) {
          u0[s] = C(g[4 * s], g[4 * s + 1]);
          v0[s] = C(g[4 * s + 2], g[4 * s + 3]);
        }
        const auto run = [&](simd::Target t) {
          ScopedSimdTarget guard(t);
          std::vector<C> u = u0, v = v0;
          simd::rotate_fn<R>()(u.data(), v.data(), c[0], c[1], c[2], c[3], c[4], n);
          u.insert(u.end(), v.begin(), v.end());
          return u;
        };
        const auto ref = run(simd::Target::kScalar);
        EXPECT_EQ(std::memcmp(&ref[n], &u0[n], sizeof(C)), 0) << "u guard, n=" << n;
        EXPECT_EQ(std::memcmp(&ref[2 * n + 1], &v0[n], sizeof(C)), 0)
            << "v guard, n=" << n;
        for (auto t : simd::supported_targets()) {
          const auto got = run(t);
          EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(C)), 0)
              << "target=" << simd::target_name(t) << " n=" << n
              << " values=" << static_cast<int>(kind) << " cs=" << c[0];
        }
      }
}

template <class R>
void phase_row_bitwise_across_targets() {
  using C = std::complex<R>;
  const R nz = -R{0};
  const R coeffs[][2] = {{R(0.81), R(-0.59)}, {R(0.81), nz}, {nz, R(0.6)}};
  for (const RowValues kind : {RowValues::kFinite, RowValues::kZeros,
                               RowValues::kNaN, RowValues::kInf})
    for (const auto& c : coeffs)
      for (std::size_t n = 0; n <= 33; ++n) {
        Rng rng(2000 * static_cast<std::uint64_t>(kind) + n);
        const auto g = lfd_row_values<R>(n, 2, kind, rng);
        std::vector<C> x0(n + 1);
        for (std::size_t s = 0; s <= n; ++s) x0[s] = C(g[2 * s], g[2 * s + 1]);
        const auto run = [&](simd::Target t) {
          ScopedSimdTarget guard(t);
          std::vector<C> x = x0;
          simd::phase_fn<R>()(x.data(), c[0], c[1], n);
          return x;
        };
        const auto ref = run(simd::Target::kScalar);
        EXPECT_EQ(std::memcmp(&ref[n], &x0[n], sizeof(C)), 0) << "guard, n=" << n;
        for (auto t : simd::supported_targets()) {
          const auto got = run(t);
          EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(C)), 0)
              << "target=" << simd::target_name(t) << " n=" << n
              << " values=" << static_cast<int>(kind) << " pr=" << c[0];
        }
      }
}

TEST(SimdBitIdentity, RotateRows) {
  rotate_rows_bitwise_across_targets<float>();
  rotate_rows_bitwise_across_targets<double>();
}

TEST(SimdBitIdentity, PhaseRow) {
  phase_row_bitwise_across_targets<float>();
  phase_row_bitwise_across_targets<double>();
}

// ---- ferro row kernel ---------------------------------------------------
//
// FerroRowFn contract (simd.hpp): one lattice row's forces and damped
// update, each target bytewise equal to the scalar table. Row lengths
// cover an empty interior (ly 2), a one-cell interior (3), and vector
// loops with and without a remainder; the excitation varies by cell and
// the external field is non-zero. The row's wrap cells hold 0.0 and
// -0.0, and a NaN or an Inf sits mid-row. The two specials run
// separately: where an Inf's default NaN met the seeded NaN, the result
// would depend on which operand the compiler put first.
TEST(SimdBitIdentity, FerroRow) {
  simd::FerroCoeffs c;
  c.a0 = -1.0;
  c.b = 1.0;
  c.k = 0.4;
  c.j = 0.6;
  c.d = 0.8;
  c.e[0] = 0.03;
  c.e[1] = -0.05;
  c.e[2] = 0.02;
  c.dt = 0.02;
  c.damp = 1.0 + 0.5 * c.dt;
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()};
  for (const std::size_t ly : {2, 3, 5, 8, 17, 70, 128}) {
    for (const double special : specials) {
      // Rows x-1, x and x+1 of a three-row lattice, stored as planes; row
      // x is [ly, 2 ly) of each plane.
      const std::size_t plane = 3 * ly;
      Rng rng(ly);
      std::vector<double> u(3 * plane), v(3 * plane), w(ly);
      for (auto& a : u) a = 0.5 * rng.normal();
      for (auto& a : v) a = 0.1 * rng.normal();
      for (auto& a : w) a = rng.uniform(0.0, 0.8);
      for (std::size_t k = 0; k < 3; ++k) {
        u[k * plane + ly] = 0.0;
        u[k * plane + 2 * ly - 1] = -0.0;
      }
      u[plane + ly + ly / 2] = special;
      const auto run = [&](simd::Target t) {
        ScopedSimdTarget guard(t);
        std::vector<double> out = v, u_next(3 * plane, 0.0);
        simd::kernels().ferro_row(c, u.data() + ly, u.data() + 2 * ly,
                                  u.data(), w.data(), out.data() + ly,
                                  u_next.data() + ly, plane, ly);
        out.insert(out.end(), u_next.begin(), u_next.end());
        return out;
      };
      const auto ref = run(simd::Target::kScalar);
      // The special reached the new field's y plane (out = v, u_next).
      EXPECT_FALSE(std::isfinite(ref[3 * plane + plane + ly + ly / 2])) << "ly=" << ly;
      for (auto t : simd::supported_targets()) {
        const auto got = run(t);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0)
            << "target=" << simd::target_name(t) << " ly=" << ly
            << " special=" << special;
      }
    }
  }
}

// ---- tanh ---------------------------------------------------------------
//
// The inputs every tanh test sweeps: the signed zeros, subnormals and
// DBL_MIN, both sides of the 0.625 branch point and of the clamp at 22,
// huge and infinite values, and 10^6 seeded log-uniform magnitudes
// (2^-30 ... 2^6, either sign), which cover the rational branch, the exp
// branch and the saturated range.
std::vector<double> tanh_inputs() {
  const double dmin = DBL_MIN, sub = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> x = {0.0, -0.0, sub, -sub, dmin, -dmin, 1e300, -1e300,
                           inf, -inf};
  for (const double edge : {0.625, 22.0}) {
    double up = edge, down = edge;
    for (int k = 0; k < 4; ++k) {
      x.insert(x.end(), {up, -up, down, -down});
      up = std::nextafter(up, inf);
      down = std::nextafter(down, 0.0);
    }
  }
  Rng rng(2027);
  for (int i = 0; i < 1000000; ++i) {
    const double m = std::exp2(rng.uniform(-30.0, 6.0));
    x.push_back(i % 2 ? m : -m);
  }
  return x;
}

std::vector<double> tanh_on(simd::Target t, const std::vector<double>& x) {
  ScopedSimdTarget guard(t);
  std::vector<double> y(x.size());
  simd::kernels().tanh_n(x.data(), y.data(), x.size());
  return y;
}

TEST(SimdBitIdentity, TanhN) {
  const auto x = tanh_inputs();
  const auto ref = tanh_on(simd::Target::kScalar, x);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto finite = tanh_on(simd::Target::kScalar, {0.3, -0.7});
  for (auto t : simd::supported_targets()) {
    const auto y = tanh_on(t, x);
    EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(double)), 0)
        << "target=" << simd::target_name(t);
    // In place, with NaNs beside finite values: each NaN comes out as a
    // NaN (its payload is not part of the contract) and leaves the other
    // lanes' bits alone.
    std::vector<double> z = {0.3, nan, -nan, -0.7};
    ScopedSimdTarget guard(t);
    simd::kernels().tanh_n(z.data(), z.data(), z.size());
    EXPECT_TRUE(std::isnan(z[1]) && std::isnan(z[2])) << simd::target_name(t);
    EXPECT_EQ(std::memcmp(&z[0], &finite[0], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&z[3], &finite[1], sizeof(double)), 0);
  }
}

/// Distance in representable doubles of two non-NaN values; values of
/// opposite signs count as infinitely far apart.
std::int64_t ulp_distance(double a, double b) {
  if (std::signbit(a) != std::signbit(b)) return std::numeric_limits<std::int64_t>::max();
  const auto ordered = [](double v) {
    std::int64_t i;
    std::memcpy(&i, &v, sizeof i);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

TEST(Simd, TanhWithinStatedUlpOfLibm) {
  const auto x = tanh_inputs();
  const auto y = tanh_on(simd::active_target(), x);
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::int64_t d = ulp_distance(y[i], std::tanh(x[i]));
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
    // Odd symmetry and the signed zeros hold exactly.
    if (x[i] == 0.0) {
      EXPECT_EQ(std::signbit(y[i]), std::signbit(x[i]));
    }
  }
  EXPECT_LE(worst, simd::kTanhMaxUlp) << "at x = " << worst_x;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(tanh_on(simd::active_target(), {nan})[0]));
}

// ---- the fused MLP kernel ------------------------------------------------
//
// MlpGradRowsFn contract (simd.hpp): y and dy0/dx of every target memcmp
// the scalar table's for the network shapes the product runs (serve
// 16-12-12-1, train_allegro 16-24-24-1, Table II 8-25-8-1 and
// 16-64-64-32-1) and an odd 5-12-7-1, at every partial lane block up to
// nb = 17 and at a 256-row chunk. A row's result does not depend on its
// batch: each row run alone matches its batched bits. No row past nb is
// written.
TEST(SimdBitIdentity, MlpGradRows) {
  const std::vector<std::vector<std::size_t>> shapes = {
      {16, 12, 12, 1}, {16, 24, 24, 1}, {8, 25, 8, 1}, {16, 64, 64, 32, 1},
      {5, 12, 7, 1}};
  std::vector<std::size_t> batches;
  for (std::size_t nb = 1; nb <= 17; ++nb) batches.push_back(nb);
  batches.push_back(256);
  for (const auto& sizes : shapes) {
    Rng rng(sizes[1] * 31 + sizes.size());
    std::vector<double> params;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
      const double scale = 1.5 / std::sqrt(static_cast<double>(sizes[l]));
      for (std::size_t k = 0; k < sizes[l] * sizes[l + 1]; ++k)
        params.push_back(scale * rng.normal());
      for (std::size_t k = 0; k < sizes[l + 1]; ++k) params.push_back(0.1 * rng.normal());
    }
    const simd::MlpNet net{sizes.data(), sizes.size(), params.data()};
    const std::size_t n_in = sizes.front(), n_out = sizes.back();
    std::vector<double> x(256 * n_in);
    for (auto& v : x) v = rng.normal();
    x[3] = 0.0;
    x[4] = -0.0;
    const auto run = [&](simd::Target t, const double* xr, std::size_t nb) {
      ScopedSimdTarget guard(t);
      // One row of 0xab guard bytes past each output.
      std::vector<double> g((nb + 1) * n_in), y((nb + 1) * n_out);
      std::memset(g.data(), 0xab, g.size() * sizeof(double));
      std::memset(y.data(), 0xab, y.size() * sizeof(double));
      std::vector<double> scratch(simd::mlp_scratch_doubles(net));
      simd::kernels().mlp_grad_rows(net, xr, nb, g.data(), y.data(), scratch.data());
      g.insert(g.end(), y.begin(), y.end());
      return g;
    };
    for (const std::size_t nb : batches) {
      const auto ref = run(simd::Target::kScalar, x.data(), nb);
      std::uint64_t pattern;
      std::memset(&pattern, 0xab, sizeof pattern);
      EXPECT_EQ(std::memcmp(&ref[nb * n_in], &pattern, sizeof pattern), 0)
          << "a gradient row past nb was written";
      EXPECT_EQ(std::memcmp(&ref[(nb + 1) * n_in + nb * n_out], &pattern,
                            sizeof pattern),
                0)
          << "an output row past nb was written";
      for (auto t : simd::supported_targets()) {
        const auto got = run(t, x.data(), nb);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0)
            << "target=" << simd::target_name(t) << " shape " << sizes[0] << "-"
            << sizes[1] << " nb=" << nb;
      }
      if (nb != 17) continue;
      for (std::size_t r = 0; r < nb; ++r) {
        const auto one = run(simd::Target::kScalar, x.data() + r * n_in, 1);
        EXPECT_EQ(std::memcmp(one.data(), &ref[r * n_in], n_in * sizeof(double)), 0)
            << "row " << r << " alone";
        EXPECT_EQ(std::memcmp(&one[2 * n_in], &ref[(nb + 1) * n_in + r * n_out],
                              n_out * sizeof(double)),
                  0)
            << "row " << r << " alone";
      }
    }
  }
}

} // namespace
