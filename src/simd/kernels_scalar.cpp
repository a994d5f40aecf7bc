// Scalar dispatch table: ukern_generic.hpp at the seed tile shapes (sized
// to the 16-register baseline ISA), compiled with -ffp-contract=off so
// that even a build with global FMA-capable flags (-march=native in
// CMAKE_CXX_FLAGS) cannot contract mul+add here — the scalar table is the
// reference every other target is byte-compared against. GCC widens its
// `omp simd` loops for the baseline SSE2; tanh's 64-bit integer compares
// need SSE4.2, so its loops stay scalar here.

#include "mlmd/simd/ukern_generic.hpp"
#include "tables.hpp"

namespace mlmd::simd::detail {
namespace {

using namespace generic;
constexpr Target kT = Target::kScalar;

// Seed register-tile shapes (DESIGN.md §8): float 4x16, double 4x8,
// complex 2x8 for both precisions.
const KernelTable kTable = {
    kT,
    {4, 16, &ukern_real<kT, float, 4, 16>},
    {4, 8, &ukern_real<kT, double, 4, 8>},
    {2, 8, &ukern_cplx<kT, float, 2, 8>},
    {2, 8, &ukern_cplx<kT, double, 2, 8>},
    &rotate_rows<kT, float>,
    &rotate_rows<kT, double>,
    &phase_row<kT, float>,
    &phase_row<kT, double>,
    &pack_panel<kT, float>,
    &pack_panel<kT, double>,
    &ferro_row<kT>,
    &tanh_n<kT>,
    &mlp_grad_rows<kT>,
    &any_above<kT>,
};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace mlmd::simd::detail
