// The generic-template kernels of the AVX2 table (ferro_row also serves
// the AVX-512 table): ukern_generic.hpp compiled with -mavx2
// -ffp-contract=off and, unlike the intrinsic TUs, with GCC's vectorizer
// left on (see src/CMakeLists.txt). The vectorizer is what widens the
// kernels' `omp simd` loops; under -fno-tree-vectorize they stay scalar.
// The intrinsic TUs turn it off because the SLP vectorizer fuses
// complex-multiply tails into vfmaddsub; these loops have no such
// pattern, -mavx2 does not enable FMA, and contraction is off, so the
// object holds no fused instruction (checked with objdump, DESIGN.md
// Sec. 12). A toolchain without -mavx2 builds null AVX2 and AVX-512
// tables, and nothing calls these functions.

#include "mlmd/simd/ukern_generic.hpp"
#include "tables.hpp"

namespace mlmd::simd::detail {

void ferro_row_avx2(FerroCoeffs c, const double* u, const double* u_xp,
                    const double* u_xm, const double* w, double* v,
                    double* u_next, std::size_t plane, std::size_t ly) {
  generic::ferro_row<Target::kAvx2>(c, u, u_xp, u_xm, w, v, u_next, plane, ly);
}

void tanh_n_avx2(const double* x, double* y, std::size_t n) {
  generic::tanh_n<Target::kAvx2>(x, y, n);
}

void mlp_grad_rows_avx2(MlpNet net, const double* x, std::size_t nb,
                        double* dy0_dx, double* y, double* scratch) {
  generic::mlp_grad_rows<Target::kAvx2>(net, x, nb, dy0_dx, y, scratch);
}

bool any_above_avx2(const double* v, std::size_t n, std::uint64_t bound) {
  return generic::any_above<Target::kAvx2>(v, n, bound);
}

}  // namespace mlmd::simd::detail
