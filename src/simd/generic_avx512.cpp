// The tanh, MLP and field-scan kernels of the AVX-512 table: ukern_generic.hpp
// compiled with -mavx512f -mavx512bw -mavx512vl -ffp-contract=off and the
// vectorizer on, like generic_avx2.cpp. A kMlpLanes block of rows is one
// zmm register. AVX-512F has fused multiply-adds, but with contraction
// off the compiler emits none (checked with objdump, DESIGN.md Sec. 12).
// A toolchain without the flags builds a null AVX-512 table, and nothing
// calls these functions.

#include "mlmd/simd/ukern_generic.hpp"
#include "tables.hpp"

namespace mlmd::simd::detail {

void tanh_n_avx512(const double* x, double* y, std::size_t n) {
  generic::tanh_n<Target::kAvx512>(x, y, n);
}

void mlp_grad_rows_avx512(MlpNet net, const double* x, std::size_t nb,
                          double* dy0_dx, double* y, double* scratch) {
  generic::mlp_grad_rows<Target::kAvx512>(net, x, nb, dy0_dx, y, scratch);
}

bool any_above_avx512(const double* v, std::size_t n, std::uint64_t bound) {
  return generic::any_above<Target::kAvx512>(v, n, bound);
}

}  // namespace mlmd::simd::detail
