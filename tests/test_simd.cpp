// Tests for mlmd::simd (DESIGN.md Sec. 12): cpuid capability probing,
// target parsing/dispatch control, and the bit-identity contract that
// makes runtime dispatch safe — every host-supported intrinsic target
// must produce BYTE-identical GEMM / gemm_mixed / kin_prop / vloc_prop
// results to the scalar reference kernels. `ctest -L simd` runs this
// binary; targets the host or build cannot run are skipped with a note.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <stdexcept>
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
// multiply-add, so the scalar and intrinsic paths round identically.
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

} // namespace
