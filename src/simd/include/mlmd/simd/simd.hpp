#pragma once
// mlmd::simd — runtime-dispatched SIMD micro-kernels (DESIGN.md Sec. 12).
//
// The packed-GEMM engine, the hot LFD inner loops (bond rotations,
// phase multiplies), the stage-3 ferro row, the library's tanh, the fused
// MLP pass and the guard's field scan run through a one-time-resolved
// function-pointer table, selected by cpuid at startup:
//
//   * simd::caps()            cpuid-probed capability report (AVX2, FMA,
//                             AVX-512F/BW/VL, AVX512-BF16, OS xsave state)
//   * simd::active_target()   the resolved Target — best supported by
//                             default, overridable with MLMD_SIMD=
//                             scalar|avx2|avx512|native or --simd= in the
//                             benches (A/B testing, sanitizer lanes)
//   * simd::kernels()         the dispatch table for the active target
//
// Every kernel is a generic template of ukern_generic.hpp. Each table is
// one translation unit that instantiates them with its own -m<isa> flags
// and GCC's vectorizer on, at the target's register-tile shapes (the
// AVX-512 table shares the AVX2 ferro row).
//
// Bit-identity contract: every kernel variant performs, per output
// element, exactly the operation sequence of the scalar table (separate
// IEEE multiply and add — never FMA-contracted, never reassociated
// across the reduction dimension), so every dispatch target produces
// byte-identical results to MLMD_SIMD=scalar. The table translation
// units are compiled with -ffp-contract=off to make that a build
// guarantee, not a hope; `ctest -L simd` asserts it. Consequently the
// existing bit-exactness guarantees (batched-vs-scalar MLP, checkpoint
// restore) survive unchanged under any target.
//
// One binary carries all targets, and no AVX2/AVX-512 code path is
// reachable without a cpuid + OS-state approval, so MLMD_SIMD=scalar runs
// on any x86-64 (and non-x86 builds degrade to scalar-only
// automatically).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mlmd::simd {

/// Dispatchable instruction-set targets, coarsest useful granularity:
/// kAvx2 requires AVX2 (micro-kernels use no FMA, see bit-identity
/// contract); kAvx512 requires AVX-512 F+BW+VL.
enum class Target { kScalar, kAvx2, kAvx512 };

/// (name, value) table for --simd= parsing via Cli::choice and for
/// MLMD_SIMD=; "native" additionally resolves to best_supported().
inline constexpr std::pair<const char*, Target> kTargetChoices[] = {
    {"scalar", Target::kScalar},
    {"avx2", Target::kAvx2},
    {"avx512", Target::kAvx512},
};

/// cpuid-probed capability report. ISA bits come from cpuid leaves 1/7;
/// the os_* bits confirm the OS actually saves the corresponding register
/// state (XCR0 via xgetbv) — an ISA bit without its os_ bit is unusable.
struct Caps {
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512bf16 = false;
  bool os_avx = false;     ///< XCR0 xmm+ymm state enabled
  bool os_avx512 = false;  ///< XCR0 opmask+zmm state enabled
};

/// The host's capability report (probed once, cached).
const Caps& caps();

/// Human-readable flag list for logs and the benchjson "machine" block,
/// e.g. {"avx2", "fma", "avx512f", "avx512bw", "avx512vl", "avx512_bf16"}.
std::vector<std::string> caps_strings();

/// True when `t` is both compiled into this binary and approved by
/// cpuid/xgetbv on this host. kScalar is always supported.
bool target_supported(Target t);

/// All supported targets, ascending (kScalar first). Never empty.
std::vector<Target> supported_targets();

/// The widest supported target.
Target best_supported();

/// Parse a target name ("scalar" | "avx2" | "avx512" | "native"); throws
/// std::invalid_argument listing the valid values on anything else.
/// "native" resolves to best_supported().
Target parse_target(const std::string& name);

const char* target_name(Target t);

/// The resolved target: MLMD_SIMD if set (unsupported values throw
/// std::runtime_error with a clear message), otherwise best_supported().
Target active_target();

/// Force a target (tests / --simd=). Throws std::runtime_error when the
/// target is not supported on this host. Safe to call between kernel
/// invocations; concurrent kernel calls each read the table exactly once.
void set_target(Target t);

// ---- dispatch table -------------------------------------------------------

/// Upper bound on MR*NR over all targets and precisions: engine-side
/// accumulator tiles are stack arrays of this many elements.
inline constexpr std::size_t kMaxAccElems = 256;

/// Real packed GEMM micro-kernel: acc[MR][NR] += sum_p a[p*MR+i]*b[p*NR+j]
/// on zero-padded packed panels, each element reduced in ascending p with
/// separate multiply and add (the scalar contract).
template <class T>
struct GemmUkern {
  std::size_t mr = 0, nr = 0;
  void (*fn)(std::size_t kc, const T* ap, const T* bp, T* acc) = nullptr;
};

/// Split-real complex micro-kernel on packed panels: a interleaved
/// (re,im) per row with stride 2*MR, b de-interleaved per p (NR reals
/// then NR imags), separate re/im accumulator planes.
template <class R>
struct CplxUkern {
  std::size_t mr = 0, nr = 0;
  void (*fn)(std::size_t kc, const R* ap, const R* bp, R* accr,
             R* acci) = nullptr;
};

/// LFD bond rotation over n orbitals of rows u, v (kin_prop sweeps):
///   u' = {cs*ur + ar*vr - ai*vi, cs*ui + ar*vi + ai*vr}
///   v' = {cs*vr + br*ur - bi*ui, cs*vi + br*ui + bi*ur}
template <class R>
using RotateRowsFn = void (*)(std::complex<R>* u, std::complex<R>* v, R cs,
                              R ar, R ai, R br, R bi, std::size_t n);

/// Uniform complex phase multiply over n orbitals of one row (kin_prop
/// diagonal phase, vloc stencil):
///   x' = {pr*r - pi*im, pr*im + pi*r}
template <class R>
using PhaseRowFn = void (*)(std::complex<R>* row, R pr, R pi, std::size_t n);

/// Zero-padded scale-copy panel packer (GEMM pack stage): for each of kc
/// packed rows,
///   dst[p*W + j] = alpha * src[p*ld + j]   for j in [0, w)
///   dst[p*W + j] = 0                       for j in [w, W)
/// with alpha == 1 lowered to a plain copy (so sNaN payloads survive
/// packing bit-exactly). This is the contiguous-copy case of the GEMM
/// packers: op(B) kN column micro-panels (alpha == 1) and op(A) kT/kC row
/// micro-panels (alpha folded into the pack). A copy admits no
/// reassociation and the scaled variant is one elementwise IEEE multiply,
/// so packed panels are byte-identical across targets.
template <class R>
using PackPanelFn = void (*)(const R* src, std::size_t ld, std::size_t kc,
                             R alpha, std::size_t w, std::size_t W, R* dst);

/// Coefficients of ferro::FerroLattice's damped step (ferro/lattice.hpp):
/// the Hamiltonian's a0, b, k, j, d and external field e, and the
/// update's dt and damping divisor damp = 1 + gamma dt (the soft mode has
/// unit mass).
struct FerroCoeffs {
  double a0 = 0, b = 0, k = 0, j = 0, d = 0;
  double e[3] = {0, 0, 0};
  double dt = 0, damp = 0;
};

/// One row of FerroLattice::step(): the force on each of the row's ly
/// cells from the old field, then the damped update (ukern_generic.hpp
/// has the per-cell definitions). u and v are stored as planes: u, u_xp
/// and u_xm point at rows x, x+1 and x-1 of u's x plane, and the y and z
/// planes follow at +plane and +2*plane; v (in/out) and u_next (out) use
/// the same layout, and w is the row's excitation. c is taken by value:
/// no store through v or u_next can then alias it, so the kernels keep
/// the coefficients in registers instead of reloading them per cell.
using FerroRowFn = void (*)(FerroCoeffs c, const double* u,
                            const double* u_xp, const double* u_xm,
                            const double* w, double* v, double* u_next,
                            std::size_t plane, std::size_t ly);

/// Largest distance, in units in the last place, of the library's tanh
/// (ukern_generic.hpp) from glibc 2.36's tanh, the bound
/// Simd.TanhWithinStatedUlpOfLibm asserts. Measured on 1.2e7 inputs
/// (log-uniform magnitudes 2^-28 ... 2^5 of both signs, uniform on
/// [-3, 3], and the specials): at most 2 ulp, with 76% of results equal.
inline constexpr int kTanhMaxUlp = 4;

/// y[k] = tanh(x[k]) for k < n; x and y may be the same array.
using TanhNFn = void (*)(const double* x, double* y, std::size_t n);

/// A tanh network in nnq::Mlp's layout: layer widths sizes[0 .. nsizes-1]
/// = {n_in, hidden..., n_out}, and params holding, layer by layer, the
/// out x in row-major weight block and then the out biases. Hidden layers
/// apply tanh; the output layer is linear.
struct MlpNet {
  const std::size_t* sizes = nullptr;
  std::size_t nsizes = 0;
  const double* params = nullptr;
};

/// Rows the MLP kernel evaluates side by side, one per SIMD lane. The
/// same on every target, so its scratch size is too.
inline constexpr std::size_t kMlpLanes = 8;

/// Doubles of scratch an MlpGradRowsFn call on `net` needs.
inline std::size_t mlp_scratch_doubles(const MlpNet& net) {
  std::size_t total = 0, wmax = 0;
  for (std::size_t l = 0; l < net.nsizes; ++l) {
    total += net.sizes[l];
    wmax = net.sizes[l] > wmax ? net.sizes[l] : wmax;
  }
  return kMlpLanes * (total + 2 * wmax);
}

/// nnq::Mlp::grad_input_rows as one forward + backward pass: for each of
/// the nb rows of x (row-major, n_in wide), dy0_dx receives d y_0 / d x
/// (nb x n_in) and y, when non-null, the outputs (nb x n_out). Per row,
/// each output of a layer is reduced with one accumulator: forward
/// acc = bias, then acc += w * a over ascending inputs, tanh on hidden
/// layers; backward delta *= 1 - a^2 below the output layer, then
/// prev = 0 + sum of delta * w over ascending outputs. Separate IEEE
/// multiplies and adds, so a row's result depends only on its own input,
/// on every target and in every batch. scratch holds
/// mlp_scratch_doubles(net) doubles.
using MlpGradRowsFn = void (*)(MlpNet net, const double* x, std::size_t nb,
                               double* dy0_dx, double* y, double* scratch);

/// Whether some v[k], k < n, has magnitude bits above `bound`, i.e.
/// |v[k]| > the non-negative double whose bits are `bound`, with a NaN
/// above +inf (ft::StepSentinel's field check). One branch-free pass.
using AnyAboveFn = bool (*)(const double* v, std::size_t n,
                            std::uint64_t bound);

struct KernelTable {
  Target target = Target::kScalar;
  GemmUkern<float> sgemm;
  GemmUkern<double> dgemm;
  CplxUkern<float> cgemm;
  CplxUkern<double> zgemm;
  RotateRowsFn<float> rotate_f = nullptr;
  RotateRowsFn<double> rotate_d = nullptr;
  PhaseRowFn<float> phase_f = nullptr;
  PhaseRowFn<double> phase_d = nullptr;
  PackPanelFn<float> pack_f = nullptr;
  PackPanelFn<double> pack_d = nullptr;
  FerroRowFn ferro_row = nullptr;
  TanhNFn tanh_n = nullptr;
  MlpGradRowsFn mlp_grad_rows = nullptr;
  AnyAboveFn any_above = nullptr;
};

/// The kernel table of the active target (one relaxed atomic load).
const KernelTable& kernels();

// Typed accessors so templated kernels pick their slot without
// specializing on the table layout.
template <class T>
inline GemmUkern<T> gemm_ukern();
template <>
inline GemmUkern<float> gemm_ukern<float>() { return kernels().sgemm; }
template <>
inline GemmUkern<double> gemm_ukern<double>() { return kernels().dgemm; }

template <class R>
inline CplxUkern<R> cplx_ukern();
template <>
inline CplxUkern<float> cplx_ukern<float>() { return kernels().cgemm; }
template <>
inline CplxUkern<double> cplx_ukern<double>() { return kernels().zgemm; }

template <class R>
inline RotateRowsFn<R> rotate_fn();
template <>
inline RotateRowsFn<float> rotate_fn<float>() { return kernels().rotate_f; }
template <>
inline RotateRowsFn<double> rotate_fn<double>() { return kernels().rotate_d; }

template <class R>
inline PhaseRowFn<R> phase_fn();
template <>
inline PhaseRowFn<float> phase_fn<float>() { return kernels().phase_f; }
template <>
inline PhaseRowFn<double> phase_fn<double>() { return kernels().phase_d; }

template <class R>
inline PackPanelFn<R> pack_fn();
template <>
inline PackPanelFn<float> pack_fn<float>() { return kernels().pack_f; }
template <>
inline PackPanelFn<double> pack_fn<double>() { return kernels().pack_d; }

}  // namespace mlmd::simd
