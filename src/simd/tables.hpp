#pragma once
// Internal: per-ISA kernel tables, one per translation unit so each can
// carry its own -m<isa> compile flags. A table function returns nullptr
// when its ISA was not compiled in (compiler too old for the flags, or a
// non-x86 build) — dispatch.cpp then treats the target as unavailable,
// exactly like a cpuid rejection.

#include "mlmd/simd/simd.hpp"

namespace mlmd::simd::detail {

const KernelTable* scalar_table();  // never nullptr
const KernelTable* avx2_table();
const KernelTable* avx512_table();

/// The generic templates compiled with the vectorizer on, for AVX2
/// (generic_avx2.cpp; the AVX-512 table shares its ferro_row) and for
/// AVX-512 (generic_avx512.cpp).
void ferro_row_avx2(FerroCoeffs c, const double* u, const double* u_xp,
                    const double* u_xm, const double* w, double* v,
                    double* u_next, std::size_t plane, std::size_t ly);
void tanh_n_avx2(const double* x, double* y, std::size_t n);
void mlp_grad_rows_avx2(MlpNet net, const double* x, std::size_t nb,
                        double* dy0_dx, double* y, double* scratch);
bool any_above_avx2(const double* v, std::size_t n, std::uint64_t bound);
void tanh_n_avx512(const double* x, double* y, std::size_t n);
void mlp_grad_rows_avx512(MlpNet net, const double* x, std::size_t nb,
                          double* dy0_dx, double* y, double* scratch);
bool any_above_avx512(const double* v, std::size_t n, std::uint64_t bound);

}  // namespace mlmd::simd::detail
