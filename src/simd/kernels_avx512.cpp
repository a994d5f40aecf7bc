// AVX-512 dispatch table. Compiled with -mavx512f -mavx512bw -mavx512vl
// and -ffp-contract=off; the guard compiles this TU to a nullptr table
// when the flags are unavailable. No FMA anywhere — see the bit-identity
// contract in simd.hpp.
//
// Tile shapes (32 zmm registers): float 8x32 / double 8x16 (16 acc regs
// + 2 B + 1 broadcast), complex 8x16 / 8x8 (16 acc regs across the two
// planes + 2 B planes + 2 broadcasts).

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
  // The all-ones mask form emits the same vpermilps as
  // _mm512_permute_ps, whose undefined passthrough GCC 12 flags with
  // -Wmaybe-uninitialized once inlined.
  static reg swap_pairs(reg v) {
    return _mm512_mask_permute_ps(v, 0xFFFF, v, 0xB1);
  }
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
  static reg swap_pairs(reg v) {
    return _mm512_mask_permute_pd(v, 0xFF, v, 0x55);  // see V512f
  }
  static reg alt(double x) {
    return _mm512_setr_pd(-x, x, -x, x, -x, x, -x, x);
  }
};

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
    &ferro_row_avx2,  // a zmm build gained nothing measurable at 4 threads
    &tanh_n_avx512,
    &mlp_grad_rows_avx512,
    &any_above_avx512,
};

}  // namespace

const KernelTable* avx512_table() { return &kTable; }

}  // namespace mlmd::simd::detail

#else  // AVX-512 flags unavailable

namespace mlmd::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace mlmd::simd::detail

#endif
