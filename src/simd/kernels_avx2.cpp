// AVX2 dispatch table. Compiled with -mavx2 -ffp-contract=off (see
// src/CMakeLists.txt); when the toolchain cannot do that the guard below
// compiles this TU down to a nullptr table and dispatch treats AVX2 as
// unavailable. No FMA anywhere — see the bit-identity contract in
// simd.hpp.
//
// Tile shapes (16 ymm registers): float 6x16 (12 acc regs + 2 B + 1
// broadcast), double 6x8 (same footprint), complex 4x8 / 4x4 (8 acc regs
// across the two planes + 2 B planes + 2 broadcasts).

#include "tables.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "kernels_x86.hpp"

namespace mlmd::simd::detail {
namespace {

struct V256f {
  using scalar = float;
  using reg = __m256;
  static constexpr std::size_t width = 8;
  static reg load(const float* p) { return _mm256_load_ps(p); }
  static reg loadu(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, reg v) { _mm256_store_ps(p, v); }
  static void storeu(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg bcast(const float* p) { return _mm256_broadcast_ss(p); }
  static reg set1(float x) { return _mm256_set1_ps(x); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg swap_pairs(reg v) { return _mm256_permute_ps(v, 0xB1); }
  static reg alt(float x) {
    return _mm256_setr_ps(-x, x, -x, x, -x, x, -x, x);
  }
};

struct V256d {
  using scalar = double;
  using reg = __m256d;
  static constexpr std::size_t width = 4;
  static reg load(const double* p) { return _mm256_load_pd(p); }
  static reg loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_store_pd(p, v); }
  static void storeu(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg bcast(const double* p) { return _mm256_broadcast_sd(p); }
  static reg set1(double x) { return _mm256_set1_pd(x); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg swap_pairs(reg v) { return _mm256_permute_pd(v, 0x5); }
  static reg alt(double x) { return _mm256_setr_pd(-x, x, -x, x); }
};

const KernelTable kTable = {
    Target::kAvx2,
    {6, 16, &ukern_real_vec<V256f, 6, 2>},
    {6, 8, &ukern_real_vec<V256d, 6, 2>},
    {4, 8, &ukern_cplx_vec<V256f, 4, 1>},
    {4, 4, &ukern_cplx_vec<V256d, 4, 1>},
    &rotate_rows_vec<V256f>,
    &rotate_rows_vec<V256d>,
    &phase_row_vec<V256f>,
    &phase_row_vec<V256d>,
    &pack_panel_vec<V256f>,
    &pack_panel_vec<V256d>,
    &ferro_row_avx2,
    &tanh_n_avx2,
    &mlp_grad_rows_avx2,
    &any_above_avx2,
};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace mlmd::simd::detail

#else  // !__AVX2__

namespace mlmd::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace mlmd::simd::detail

#endif
