// AVX-512 dispatch table: ukern_generic.hpp compiled with -mavx512f
// -mavx512bw -mavx512vl -ffp-contract=off and the vectorizer on.
// AVX-512F has fused multiply-adds, but with contraction off and every
// complex update written as additions (ukern_generic.hpp) GCC emits none
// (`ctest -R lint_simd_objects`). The guard compiles this TU to a
// nullptr table when the flags are unavailable.
//
// Tile shapes (32 zmm registers): float 8x32 / double 8x16 (16
// accumulators + 2 B + 1 broadcast), complex 8x16 / 8x8 (16 accumulators
// across the two planes + 2 B planes + 2 broadcasts).

#include "tables.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include "mlmd/simd/ukern_generic.hpp"

namespace mlmd::simd::detail {
namespace {

using namespace generic;
constexpr Target kT = Target::kAvx512;

const KernelTable kTable = {
    kT,
    {8, 32, &ukern_real<kT, float, 8, 32>},
    {8, 16, &ukern_real<kT, double, 8, 16>},
    {8, 16, &ukern_cplx<kT, float, 8, 16>},
    {8, 8, &ukern_cplx<kT, double, 8, 8>},
    &rotate_rows<kT, float>,
    &rotate_rows<kT, double>,
    &phase_row<kT, float>,
    &phase_row<kT, double>,
    &pack_panel<kT, float>,
    &pack_panel<kT, double>,
    &ferro_row_avx2,
    &tanh_n<kT>,
    &mlp_grad_rows<kT>,
    &any_above<kT>,
};

}  // namespace

const KernelTable* avx512_table() { return &kTable; }

}  // namespace mlmd::simd::detail

#else  // AVX-512 flags unavailable

namespace mlmd::simd::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace mlmd::simd::detail

#endif
