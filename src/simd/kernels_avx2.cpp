// AVX2 dispatch table: ukern_generic.hpp compiled with -mavx2
// -ffp-contract=off and the vectorizer on (see src/CMakeLists.txt).
// -mavx2 does not enable FMA and contraction is off, so the object holds
// no fused instruction (`ctest -R lint_simd_objects`). When the toolchain
// cannot build for AVX2 the guard below compiles this TU down to a
// nullptr table and dispatch treats AVX2 as unavailable.
//
// Tile shapes (16 ymm registers): float 6x16 and double 6x8 (12
// accumulators + 2 B + 1 broadcast), complex 4x8 / 4x4 (8 accumulators
// across the two planes + 2 B planes + 2 broadcasts).

#include "tables.hpp"

#if defined(__AVX2__)

#include "mlmd/simd/ukern_generic.hpp"

namespace mlmd::simd::detail {

void ferro_row_avx2(FerroCoeffs c, const double* u, const double* u_xp,
                    const double* u_xm, const double* w, double* v,
                    double* u_next, std::size_t plane, std::size_t ly) {
  generic::ferro_row<Target::kAvx2>(c, u, u_xp, u_xm, w, v, u_next, plane, ly);
}

namespace {

using namespace generic;
constexpr Target kT = Target::kAvx2;

const KernelTable kTable = {
    kT,
    {6, 16, &ukern_real<kT, float, 6, 16>},
    {6, 8, &ukern_real<kT, double, 6, 8>},
    {4, 8, &ukern_cplx<kT, float, 4, 8>},
    {4, 4, &ukern_cplx<kT, double, 4, 4>},
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

const KernelTable* avx2_table() { return &kTable; }

}  // namespace mlmd::simd::detail

#else  // !__AVX2__

namespace mlmd::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace mlmd::simd::detail

#endif
