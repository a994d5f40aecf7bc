#pragma once
// Parameterized-precision GEMM (paper Secs. V.B.5, V.B.7, VI.C).
//
// MLMD's nonlocal correction, energy, and current computations are
// "GEMMified": expressed as dense matrix-matrix products. On Aurora these
// run through oneMKL with compute modes float_to_BF16{,x2,x3}. Here we
// implement our own packed, register-blocked GEMM engine with the same
// parameterized precision surface:
//   - native FP64 / FP32 (real and complex),
//   - software-emulated BF16 with FP32 accumulation, where each FP32
//     input scalar is split into 1, 2, or 3 BF16 components
//     (ComputeMode::kBF16{,x2,x3}) and products of components are
//     accumulated in FP32, mirroring systolic-array semantics.
//
// Engine layout (DESIGN.md §8, §12): op(B) is packed into column
// micro-panels and alpha*op(A) into row micro-panels inside each k-block,
// and a register-tiled micro-kernel resolved through the mlmd::simd
// dispatch table (scalar / AVX2 / AVX-512, selected per host cpuid or
// MLMD_SIMD / --simd=) drives all four precisions. The MR x NR tile
// shape is a property of the resolved kernel — the engine reads it from
// the table each call, so blocking retunes itself per ISA. Packing
// scratch comes from the thread-local mlmd::common::Workspace arena
// (64-byte aligned, so no panel row load splits a cache line), and
// steady-state calls are allocation-free. Determinism: tile
// decomposition and accumulation order depend only on shapes — never on
// the thread count or the active ISA — and each C element is reduced in
// strictly ascending k order with no fused multiply-add, so results are
// bit-identical for any thread count AND any dispatch target: every
// vectorized variant rounds exactly like the scalar ascending-k dot
// product (the contract Mlp::forward_batch relies on; asserted by
// `ctest -L simd`).
//
// All entry points record analytic FLOP counts via mlmd::flops.

#include <complex>
#include <cstddef>

#include "mlmd/la/matrix.hpp"

namespace mlmd::la {

/// Operation applied to an input operand, as in BLAS.
enum class Trans {
  kN, ///< use A as stored
  kT, ///< transpose
  kC, ///< conjugate transpose
};

/// Precision ladder for FP32 inputs (paper Sec. VI.C).
enum class ComputeMode {
  kNative, ///< multiply in the storage precision
  kBF16,   ///< 1 BF16 component per scalar, FP32 accumulate
  kBF16x2, ///< 2 components: BF16x2 mode
  kBF16x3, ///< 3 components: accuracy comparable to FP32
};

/// C <- alpha * op(A) * op(B) + beta * C, storage-precision arithmetic.
/// Shapes must satisfy op(A): m x k, op(B): k x n, C: m x n.
template <class T>
void gemm(Trans ta, Trans tb, T alpha, const Matrix<T>& a, const Matrix<T>& b,
          T beta, Matrix<T>& c);

/// Raw-pointer GEMM on row-major operands with explicit leading
/// dimensions: C[m x n, ldc] <- alpha * op(A) * op(B) + beta * C where
/// op(A) is m x k and op(B) is k x n. `a` points at the stored matrix
/// (the one op() is applied to): for ta == kN it is m x k with leading
/// dimension lda; for kT/kC it is k x m. Same engine and determinism
/// contract as the Matrix overload; used by callers whose operands are
/// not Matrix objects (Mlp weight slices, workspace activations).
template <class T>
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          T alpha, const T* a, std::size_t lda, const T* b, std::size_t ldb,
          T beta, T* c, std::size_t ldc);

extern template void gemm<float>(Trans, Trans, std::size_t, std::size_t,
                                 std::size_t, float, const float*, std::size_t,
                                 const float*, std::size_t, float, float*,
                                 std::size_t);
extern template void gemm<double>(Trans, Trans, std::size_t, std::size_t,
                                  std::size_t, double, const double*,
                                  std::size_t, const double*, std::size_t,
                                  double, double*, std::size_t);
extern template void gemm<std::complex<float>>(
    Trans, Trans, std::size_t, std::size_t, std::size_t, std::complex<float>,
    const std::complex<float>*, std::size_t, const std::complex<float>*,
    std::size_t, std::complex<float>, std::complex<float>*, std::size_t);
extern template void gemm<std::complex<double>>(
    Trans, Trans, std::size_t, std::size_t, std::size_t, std::complex<double>,
    const std::complex<double>*, std::size_t, const std::complex<double>*,
    std::size_t, std::complex<double>, std::complex<double>*, std::size_t);

extern template void gemm<float>(Trans, Trans, float, const Matrix<float>&,
                                 const Matrix<float>&, float, Matrix<float>&);
extern template void gemm<double>(Trans, Trans, double, const Matrix<double>&,
                                  const Matrix<double>&, double, Matrix<double>&);
extern template void gemm<std::complex<float>>(Trans, Trans, std::complex<float>,
                                               const Matrix<std::complex<float>>&,
                                               const Matrix<std::complex<float>>&,
                                               std::complex<float>,
                                               Matrix<std::complex<float>>&);
extern template void gemm<std::complex<double>>(Trans, Trans, std::complex<double>,
                                                const Matrix<std::complex<double>>&,
                                                const Matrix<std::complex<double>>&,
                                                std::complex<double>,
                                                Matrix<std::complex<double>>&);

/// Mixed-precision CGEMM on complex<float> data. kNative falls through to
/// gemm(); BF16 modes split the real/imaginary planes of both operands
/// into BF16 components and accumulate all component products in FP32.
void gemm_mixed(ComputeMode mode, Trans ta, Trans tb, std::complex<float> alpha,
                const Matrix<std::complex<float>>& a,
                const Matrix<std::complex<float>>& b, std::complex<float> beta,
                Matrix<std::complex<float>>& c);

} // namespace mlmd::la
