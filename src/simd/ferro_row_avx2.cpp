// The ferro row kernel for the AVX2 and AVX-512 tables: the generic
// template compiled with -mavx2 -ffp-contract=off and, unlike the
// intrinsic TUs, with GCC's vectorizer left on (see src/CMakeLists.txt).
// The vectorizer is what widens the kernel's `omp simd` loop; under
// -fno-tree-vectorize it stays scalar. The intrinsic TUs turn it off
// because the SLP vectorizer fuses complex-multiply tails into vfmaddsub;
// this loop has no such pattern, -mavx2 does not enable FMA, and
// contraction is off, so the object holds no fused instruction (checked
// with objdump, DESIGN.md Sec. 12). A toolchain without -mavx2 builds
// null AVX2 and AVX-512 tables, and nothing calls this function.

#include "mlmd/simd/ukern_generic.hpp"
#include "tables.hpp"

namespace mlmd::simd::detail {

void ferro_row_avx2(FerroCoeffs c, const double* u, const double* u_xp,
                    const double* u_xm, const double* w, double* v,
                    double* u_next, std::size_t plane, std::size_t ly) {
  generic::ferro_row<Target::kAvx2>(c, u, u_xp, u_xm, w, v, u_next, plane, ly);
}

}  // namespace mlmd::simd::detail
