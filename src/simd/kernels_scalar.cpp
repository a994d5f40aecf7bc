// Scalar dispatch table: instantiations of the generic reference kernels
// at the seed tile shapes (sized to the 16-register baseline ISA). This
// file is compiled with -ffp-contract=off so that even a build with
// global FMA-capable flags (-march=native in CMAKE_CXX_FLAGS) cannot
// contract mul+add here — the scalar table is the reference every other
// target is byte-compared against. Its `omp simd` loops (the ferro row
// and the MLP kernel's matrix-vector loops among them) vectorize for the
// baseline SSE2; tanh's 64-bit integer compares need SSE4.2, so its loops
// stay scalar here.

#include "mlmd/simd/simd.hpp"
#include "mlmd/simd/ukern_generic.hpp"
#include "tables.hpp"

namespace mlmd::simd::detail {
namespace {

// Seed register-tile shapes (DESIGN.md §8): float 4x16, double 4x8,
// complex 2x8 for both precisions.
const KernelTable kScalarTable = {
    Target::kScalar,
    {4, 16, &generic::ukern_real<float, 4, 16>},
    {4, 8, &generic::ukern_real<double, 4, 8>},
    {2, 8, &generic::ukern_cplx<float, 2, 8>},
    {2, 8, &generic::ukern_cplx<double, 2, 8>},
    &generic::rotate_rows<float>,
    &generic::rotate_rows<double>,
    &generic::phase_row<float>,
    &generic::phase_row<double>,
    &generic::pack_panel<float>,
    &generic::pack_panel<double>,
    &generic::ferro_row<Target::kScalar>,
    &generic::tanh_n<Target::kScalar>,
    &generic::mlp_grad_rows<Target::kScalar>,
    &generic::any_above<Target::kScalar>,
};

}  // namespace

const KernelTable* scalar_table() { return &kScalarTable; }

}  // namespace mlmd::simd::detail
