// AVX-512 dispatch table. Compiled with -mavx512f -mavx512bw -mavx512vl
// (+ -mavx512bf16 when the compiler has it) and -ffp-contract=off; the
// guard compiles this TU to a nullptr table when the flags are
// unavailable. No FMA anywhere — see the bit-identity contract in
// simd.hpp.
//
// Tile shapes (32 zmm registers): float 8x32 / double 8x16 (16 acc regs
// + 2 B + 1 broadcast), complex 8x16 / 8x8 (16 acc regs across the two
// planes + 2 B planes + 2 broadcasts).
//
// The BF16 pair-dot kernel is the only consumer of AVX512-BF16; its
// table slot is nulled at dispatch-resolve time when cpuid lacks the
// bit, so the rest of the AVX-512 table remains usable on F+BW+VL-only
// hosts.

#include "tables.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include "kernels_x86.hpp"

namespace mlmd::simd::detail {
namespace {

struct V512f {
  using scalar = float;
  using reg = __m512;
  static constexpr std::size_t width = 16;
  static reg load(const float* p) { return _mm512_load_ps(p); }
  static reg loadu(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, reg v) { _mm512_store_ps(p, v); }
  static void storeu(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg bcast(const float* p) { return _mm512_set1_ps(*p); }
  static reg set1(float x) { return _mm512_set1_ps(x); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_ps(a, b); }
  static reg swap_pairs(reg v) { return _mm512_permute_ps(v, 0xB1); }
  static reg alt(float x) {
    return _mm512_setr_ps(-x, x, -x, x, -x, x, -x, x, -x, x, -x, x, -x, x,
                          -x, x);
  }
};

struct V512d {
  using scalar = double;
  using reg = __m512d;
  static constexpr std::size_t width = 8;
  static reg load(const double* p) { return _mm512_load_pd(p); }
  static reg loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) { _mm512_store_pd(p, v); }
  static void storeu(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg bcast(const double* p) { return _mm512_set1_pd(*p); }
  static reg set1(double x) { return _mm512_set1_pd(x); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg swap_pairs(reg v) { return _mm512_permute_pd(v, 0x55); }
  static reg alt(double x) {
    return _mm512_setr_pd(-x, x, -x, x, -x, x, -x, x);
  }
};

#if defined(__AVX512BF16__)
/// VDPBF16PS pair-dot (contract in simd.hpp): 16 FP32 lane accumulators,
/// each consuming one bf16 pair per 32-element block.
void bf16_dot16_hw(std::size_t n, const std::uint16_t* a,
                   const std::uint16_t* b, float acc[16]) {
  __m512 c = _mm512_loadu_ps(acc);
  for (std::size_t i = 0; i < n; i += 32) {
    const __m512i av = _mm512_loadu_si512(a + i);
    const __m512i bv = _mm512_loadu_si512(b + i);
    c = _mm512_dpbf16_ps(c, (__m512bh)av, (__m512bh)bv);
  }
  _mm512_storeu_ps(acc, c);
}
constexpr Bf16Dot16Fn kBf16Dot = &bf16_dot16_hw;
#else
constexpr Bf16Dot16Fn kBf16Dot = nullptr;
#endif

const KernelTable kTable = {
    Target::kAvx512,
    {8, 32, &ukern_real_vec<V512f, 8, 2>},
    {8, 16, &ukern_real_vec<V512d, 8, 2>},
    {8, 16, &ukern_cplx_vec<V512f, 8, 1>},
    {8, 8, &ukern_cplx_vec<V512d, 8, 1>},
    &rotate_rows_vec<V512f>,
    &rotate_rows_vec<V512d>,
    &phase_row_vec<V512f>,
    &phase_row_vec<V512d>,
    &pack_panel_vec<V512f>,
    &pack_panel_vec<V512d>,
    kBf16Dot,
    &ferro_row_avx2,  // a zmm build gained nothing measurable at 4 threads
};

}  // namespace

const KernelTable* avx512_table() { return &kTable; }

}  // namespace mlmd::simd::detail

#else  // AVX-512 flags unavailable

namespace mlmd::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace mlmd::simd::detail

#endif
