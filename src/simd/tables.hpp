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

/// The AVX2 ferro row (kernels_avx2.cpp), which the AVX-512 table shares:
/// a zmm build of it gained nothing measurable at 4 threads.
void ferro_row_avx2(FerroCoeffs c, const double* u, const double* u_xp,
                    const double* u_xm, const double* w, double* v,
                    double* u_next, std::size_t plane, std::size_t ly);

}  // namespace mlmd::simd::detail
