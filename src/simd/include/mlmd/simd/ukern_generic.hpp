#pragma once
// The kernels of every dispatch table (DESIGN.md Sec. 12). Each table's
// translation unit (kernels_scalar.cpp, kernels_avx2.cpp,
// kernels_avx512.cpp) instantiates these templates under its own -m<isa>
// flags with -ffp-contract=off and GCC's vectorizer on; there is no other
// way a kernel is written. The templates define the bit-identity
// contract: per output element, separate IEEE multiply and add, an
// ascending reduction index and one accumulator, so every target's
// widening of a loop writes the scalar table's bits, which test_simd
// compares bytewise.
//
// Every `#pragma omp simd` loop vectorizes only a direction in which
// elements are independent: lanes repeat the scalar operation sequence
// and no floating-point reduction is reassociated.
//
// Each template a table points at takes a Target parameter that only
// keys the instantiation: every kernel TU instantiates its own, so the
// linker never folds copies built with different -m flags onto one
// ISA's code. Helpers called from the kernels are always_inline for the
// same reason.
//
// A subtraction whose lanes would alternate with additions (the real
// and imaginary parts of a complex product) is written as the addition
// of a product with a negated coefficient: x - a*b == x + (-a)*b
// bitwise, since x - y == x + (-y) and (-a)*b == -(a*b) in IEEE
// arithmetic. The lanes then all add, which leaves GCC's SLP addsub
// matcher nothing to fuse into the vfmaddsub it otherwise emits under
// -mavx512f even with contraction off.

#include <algorithm>
#include <array>
#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>

#include "mlmd/simd/simd.hpp"

namespace mlmd::simd::generic {

/// GemmUkern: acc[MR][NR] += sum_p a[p*MR + i] * b[p*NR + j] (a, b
/// packed, zero-padded). Each element: t = a*b; acc = acc + t, ascending
/// p. With the i loop unrolled every accumulator row has a fixed address
/// inside the p loop, so GCC holds the MR x NR tile in vector registers
/// from the first load to the last store.
template <Target, class T, std::size_t MR, std::size_t NR>
void ukern_real(std::size_t kc, const T* __restrict__ ap,
                const T* __restrict__ bp, T* __restrict__ acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const T* a = ap + p * MR;
    const T* b = bp + p * NR;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = a[i];
      T* c = acc + i * NR;
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) c[j] += av * b[j];
    }
  }
}

/// CplxUkern on split-real packed panels: a interleaved (re,im) per row
/// with stride 2*MR, b de-interleaved per p (NR reals then NR imags),
/// separate re/im accumulator planes, held in registers like
/// ukern_real's tile. The manual expansion matches the
/// `cr += ar*xr - ai*xi` form (std::complex operator* would route
/// through the scalar, NaN-correct __mulsc3); each plane's lanes all
/// subtract or all add, so no addsub pattern arises.
template <Target, class R, std::size_t MR, std::size_t NR>
void ukern_cplx(std::size_t kc, const R* __restrict__ ap,
                const R* __restrict__ bp, R* __restrict__ accr,
                R* __restrict__ acci) {
  for (std::size_t p = 0; p < kc; ++p) {
    const R* a = ap + p * 2 * MR;
    const R* br = bp + p * 2 * NR;
    const R* bi = br + NR;
#pragma GCC unroll 16
    for (std::size_t i = 0; i < MR; ++i) {
      const R ar = a[2 * i], ai = a[2 * i + 1];
      R* cr = accr + i * NR;
      R* ci = acci + i * NR;
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) {
        cr[j] += ar * br[j] - ai * bi[j];
        ci[j] += ar * bi[j] + ai * br[j];
      }
    }
  }
}

/// RotateRowsFn (kin_prop bond rotation over n orbitals of rows u, v).
/// The rows are read as interleaved reals, and each subtraction of the
/// contract is an addition of the negated coefficient's product (see the
/// file comment), so the vectorizer pairs the (re, im) lanes with one
/// swap of v (or u) and no addsub.
template <Target, class R>
void rotate_rows(std::complex<R>* __restrict__ u,
                 std::complex<R>* __restrict__ v, R cs, R ar, R ai, R br,
                 R bi, std::size_t n) {
  R* x = reinterpret_cast<R*>(u);
  R* y = reinterpret_cast<R*>(v);
  const R nai = -ai, nbi = -bi;
#pragma omp simd
  for (std::size_t s = 0; s < n; ++s) {
    const R ur = x[2 * s], ui = x[2 * s + 1];
    const R vr = y[2 * s], vi = y[2 * s + 1];
    x[2 * s] = cs * ur + ar * vr + nai * vi;
    x[2 * s + 1] = cs * ui + ar * vi + ai * vr;
    y[2 * s] = cs * vr + br * ur + nbi * ui;
    y[2 * s + 1] = cs * vi + br * ui + bi * ur;
  }
}

/// PhaseRowFn (uniform complex phase multiply over n orbitals of one
/// row), with the sign folded into the coefficient like rotate_rows.
template <Target, class R>
void phase_row(std::complex<R>* __restrict__ row, R pr, R pi,
               std::size_t n) {
  R* x = reinterpret_cast<R*>(row);
  const R npi = -pi;
#pragma omp simd
  for (std::size_t s = 0; s < n; ++s) {
    const R r = x[2 * s], im = x[2 * s + 1];
    x[2 * s] = pr * r + npi * im;
    x[2 * s + 1] = pr * im + pi * r;
  }
}

/// Zero-padded scale-copy panel packer (PackPanelFn contract):
///   dst[p*W + j] = alpha * src[p*ld + j]  (j < w),  0  (w <= j < W).
/// alpha == 1 is a plain copy so packing never rewrites payload bits.
template <Target, class R>
void pack_panel(const R* __restrict__ src, std::size_t ld, std::size_t kc,
                R alpha, std::size_t w, std::size_t W, R* __restrict__ dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    const R* s = src + p * ld;
    R* d = dst + p * W;
    if (alpha == R{1}) {
#pragma omp simd
      for (std::size_t j = 0; j < w; ++j) d[j] = s[j];
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < w; ++j) d[j] = alpha * s[j];
    }
    for (std::size_t j = w; j < W; ++j) d[j] = R{};
  }
}

/// F = -dE/du at one cell of the ferro lattice (ferro/lattice.hpp) from
/// its value ui, excitation wi and four neighbours. The one force
/// definition behind FerroLattice::forces() and ferro_row: the
/// accumulator starts at zero, the terms keep this order, and multiplies
/// and adds stay separate, so every caller and every target produce the
/// same bits. Always inlined, so no translation unit emits an
/// out-of-line copy built with another unit's ISA flags for the linker to
/// pick.
[[gnu::always_inline]] inline std::array<double, 3> ferro_force(
    const FerroCoeffs& p, const std::array<double, 3>& ui, double wi,
    const std::array<double, 3>& nxp, const std::array<double, 3>& nxm,
    const std::array<double, 3>& nyp, const std::array<double, 3>& nym) {
  std::array<double, 3> fi{0.0, 0.0, 0.0};
  const double n2 = ui[0] * ui[0] + ui[1] * ui[1] + ui[2] * ui[2];
  const double aw = p.a0 * (1.0 - 2.0 * wi);

  // Local well + anisotropy + field. Components are spelled out: a loop
  // over c would keep the arrays in memory and stop the vectorizer.
  fi[0] += -2.0 * aw * ui[0] - 4.0 * p.b * n2 * ui[0] + p.e[0];
  fi[1] += -2.0 * aw * ui[1] - 4.0 * p.b * n2 * ui[1] + p.e[1];
  fi[2] += -2.0 * aw * ui[2] - 4.0 * p.b * n2 * ui[2] + p.e[2];
  fi[2] += 2.0 * p.k * ui[2];

  // Gradient term: -dE/du_i = -2J sum_nb (u_i - u_nb).
  fi[0] += -2.0 * p.j * (4.0 * ui[0] - nxp[0] - nxm[0] - nyp[0] - nym[0]);
  fi[1] += -2.0 * p.j * (4.0 * ui[1] - nxp[1] - nxm[1] - nyp[1] - nym[1]);
  fi[2] += -2.0 * p.j * (4.0 * ui[2] - nxp[2] - nxm[2] - nyp[2] - nym[2]);

  // Chiral term derivative. E_bond(+x at i) = D * [u_i x u_{i+x}]_y
  //  = D (u_i,z u_{i+x},x - u_i,x u_{i+x},z)
  // dE/du_i = D ( u_{i+x},x z_hat - u_{i+x},z x_hat )
  // Bond (+x at i-x): E = D (u_{i-x},z u_i,x - u_{i-x},x u_i,z)
  // dE/du_i = D ( u_{i-x},z x_hat - u_{i-x},x z_hat )
  fi[0] -= p.d * (-nxp[2] + nxm[2]);
  fi[2] -= p.d * (nxp[0] - nxm[0]);
  // Bond (+y at i): E = -D [u_i x u_{i+y}]_x
  //  = -D (u_i,y u_{i+y},z - u_i,z u_{i+y},y)
  // dE/du_i = -D ( u_{i+y},z y_hat - u_{i+y},y z_hat )
  // Bond (+y at i-y): E = -D (u_{i-y},y u_i,z - u_{i-y},z u_i,y)
  // dE/du_i = -D ( u_{i-y},y z_hat - u_{i-y},z y_hat )
  fi[1] -= -p.d * (nyp[2] - nym[2]);
  fi[2] -= -p.d * (-nyp[1] + nym[1]);
  return fi;
}

/// The ferro lattice's damped semi-implicit Euler update of one unit-mass
/// value, velocity first: v <- (v + dt f) / (1 + gamma dt), then returns
/// the new u = u + dt v. Always inlined, like ferro_force.
[[gnu::always_inline]] inline double ferro_update(const FerroCoeffs& p,
                                                  double f, double u,
                                                  double& v) {
  v = (v + p.dt * f) / p.damp;
  return u + p.dt * v;
}

/// FerroRowFn: ferro_force then ferro_update for each cell of one row.
/// The two wrap cells are peeled, so the interior is one `omp simd` loop
/// of unit-stride loads; vector lanes repeat the scalar operation
/// sequence, and the kernel TUs cannot contract it into FMAs, so every
/// target writes the same bits.
template <Target>
void ferro_row(FerroCoeffs p, const double* u, const double* u_xp,
               const double* u_xm, const double* w, double* v,
               double* u_next, std::size_t plane, std::size_t ly) {
  const auto at = [plane](const double* a, std::size_t y) {
    return std::array<double, 3>{a[y], a[y + plane], a[y + 2 * plane]};
  };
  // always_inline: with three call sites the body is past GCC's inline
  // limit, and a call left in the `omp simd` loop keeps it scalar.
  const auto cell = [&](std::size_t y, std::size_t yp, std::size_t ym)
                        __attribute__((always_inline)) {
    const std::array<double, 3> f =
        ferro_force(p, at(u, y), w[y], at(u_xp, y), at(u_xm, y), at(u, yp),
                    at(u, ym));
    const std::size_t y1 = y + plane, y2 = y + 2 * plane;
    u_next[y] = ferro_update(p, f[0], u[y], v[y]);
    u_next[y1] = ferro_update(p, f[1], u[y1], v[y1]);
    u_next[y2] = ferro_update(p, f[2], u[y2], v[y2]);
  };
  cell(0, 1, ly - 1);
#pragma omp simd
  for (std::size_t y = 1; y < ly - 1; ++y) cell(y, y + 1, y - 1);
  cell(ly - 1, 0, ly - 2);
}

/// Bitwise select: the bits of a where mask is all ones, of b where it is
/// zero. An integer mask keeps the vectorizer from turning a select into
/// a branch, which an FP compare under -ftrapping-math would.
[[gnu::always_inline]] inline double select_bits(std::uint64_t mask, double a,
                                                 double b) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

/// The one tanh (simd.hpp states its error bound, kTanhMaxUlp). It works
/// on |x| and ORs the sign bit back, so tanh(-x) = -tanh(x) bitwise and
/// ±0 and subnormals return themselves:
///   |x| < 0.625   Cephes' rational form |x| + |x| s P(s) / Q(s), s = x^2;
///   otherwise     1 - 2 / (e^t + 1), t = 2|x| with |x| clamped at 22
///                 (where the result rounds to 1). e^t is Cephes' exp:
///                 t = n ln2 + r with a two-part ln2, and
///                 e^t = 2^n (Q(r) + P(r)) / (Q(r) - P(r)), 2^n added to
///                 the exponent bits; so 2 / (e^t + 1) is one quotient.
/// Both branches run, and integer compares on the magnitude bits pick the
/// numerator, denominator and result, so each element costs one divide
/// and the vectorizer widens the function. A NaN is returned as is. Only
/// IEEE add, multiply and divide and integer bit operations: no libm, so
/// every target and every host give the same bits. Always inlined, like
/// ferro_force.
[[gnu::always_inline]] inline double tanh(double x) {
  using u64 = std::uint64_t;
  using i64 = std::int64_t;
  constexpr u64 kSign = 0x8000000000000000ull;
  constexpr i64 kSmall = 0x3fe4000000000000ll;  // 0.625
  constexpr i64 kClamp = 0x4036000000000000ll;  // 22.0
  constexpr i64 kNaN = 0x7ff0000000000001ll;    // smallest NaN magnitude
  // Adding 1.5 * 2^52 rounds a double of magnitude < 2^51 to an integer,
  // which then sits in the low bits of the sum.
  constexpr double kRound = 6755399441055744.0;
  const u64 bits = std::bit_cast<u64>(x);
  const u64 sign = bits & kSign;
  const i64 abits = static_cast<i64>(bits ^ sign);
  const double ax = std::bit_cast<double>(abits);
  // All ones where |x| is below the magnitude with bits b.
  const auto below = [abits](i64 b) { return -static_cast<u64>(abits < b); };

  const double s = ax * ax;
  const double p = (-9.64399179425052238628e-1 * s +
                    -9.92877231001918586564e1) * s +
                   -1.61468768441708447952e3;
  const double q = ((s + 1.12811678491632931402e2) * s +
                    2.23548839060100448583e3) * s +
                   4.84406305325125486048e3;

  const double c = select_bits(below(kClamp), ax, std::bit_cast<double>(kClamp));
  const double t = c + c;
  const double k = t * 1.4426950408889634073599 + kRound;
  const double n = k - kRound;
  const u64 n_exp = (std::bit_cast<u64>(k) - std::bit_cast<u64>(kRound)) << 52;
  double r = t - n * 6.93145751953125e-1;
  r = r - n * 1.42860682030941723212e-6;
  const double rr = r * r;
  const double pr = r * ((1.26177193074810590878e-4 * rr +
                          3.02994407707441961300e-2) * rr +
                         9.99999999999999999910e-1);
  const double qr = ((3.00198505138664455042e-6 * rr +
                      2.52448340349684104192e-3) * rr +
                     2.27265548208155028766e-1) * rr +
                    2.00000000000000000009e0;
  const double qm = qr - pr;
  const double scaled = std::bit_cast<double>(std::bit_cast<u64>(qr + pr) + n_exp);

  const u64 small = below(kSmall);
  const double d = select_bits(small, ax * s * p, 2.0 * qm) /
                   select_bits(small, q, scaled + qm);
  const double mag = select_bits(small, ax + d, 1.0 - d);
  return select_bits(below(kNaN),
                     std::bit_cast<double>(std::bit_cast<u64>(mag) | sign), x);
}

/// TanhNFn: y[k] = tanh(x[k]).
template <Target>
void tanh_n(const double* x, double* y, std::size_t n) {
#pragma omp simd
  for (std::size_t k = 0; k < n; ++k) y[k] = tanh(x[k]);
}

/// AnyAboveFn: an OR over the whole array, with no early exit, so the
/// loop vectorizes; the sign bit is masked off and the magnitude bits
/// compared as signed integers, which AVX2 compares natively.
template <Target>
bool any_above(const double* v, std::size_t n, std::uint64_t bound) {
  constexpr std::uint64_t kMag = 0x7fffffffffffffffull;
  const auto b = static_cast<std::int64_t>(bound);
  std::uint64_t hit = 0;
#pragma omp simd reduction(| : hit)
  for (std::size_t k = 0; k < n; ++k)
    hit |= static_cast<std::uint64_t>(
        static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(v[k]) & kMag) > b);
  return hit != 0;
}

/// MlpGradRowsFn (simd.hpp has the contract). Rows go kMlpLanes at a
/// time, one row per lane: the block's inputs are transposed into the
/// scratch as [width][lane] slabs, every layer's activations follow in the
/// same layout, and each `omp simd` loop runs across the lanes, so lanes
/// repeat the per-row operation sequence of the scalar passes. A partial
/// block fills its unused lanes with zeros and never writes them out.
template <Target>
void mlp_grad_rows(MlpNet net, const double* x, std::size_t nb,
                   double* dy0_dx, double* y, double* scratch) {
  constexpr std::size_t L = kMlpLanes;
  const std::size_t* sz = net.sizes;
  const std::size_t nl = net.nsizes - 1;
  const std::size_t n_in = sz[0], n_out = sz[nl];
  std::size_t total = 0, wmax = 0;
  for (std::size_t l = 0; l <= nl; ++l) {
    total += sz[l];
    wmax = std::max(wmax, sz[l]);
  }
  double* const act = scratch;  // level l at act + L * (sz[0] + ... + sz[l-1])
  double* delta = act + L * total;
  double* prev = delta + L * wmax;

  for (std::size_t r0 = 0; r0 < nb; r0 += L) {
    const std::size_t nv = std::min(L, nb - r0);
    for (std::size_t i = 0; i < n_in; ++i)
      for (std::size_t j = 0; j < L; ++j)
        act[i * L + j] = j < nv ? x[(r0 + j) * n_in + i] : 0.0;

    // Forward: acc = bias, then acc += w * a in ascending input order.
    const double* w = net.params;
    double* a = act;
    for (std::size_t l = 0; l < nl; ++l) {
      const std::size_t in = sz[l], out = sz[l + 1];
      const double* bias = w + in * out;
      double* an = a + in * L;
      for (std::size_t o = 0; o < out; ++o) {
        const double* wr = w + o * in;
        double acc[L];
        for (std::size_t j = 0; j < L; ++j) acc[j] = bias[o];
        for (std::size_t i = 0; i < in; ++i) {
          const double wi = wr[i];
          const double* ai = a + i * L;
#pragma omp simd
          for (std::size_t j = 0; j < L; ++j) acc[j] += wi * ai[j];
        }
        for (std::size_t j = 0; j < L; ++j) an[o * L + j] = acc[j];
      }
      if (l + 1 < nl) {
#pragma omp simd
        for (std::size_t k = 0; k < out * L; ++k) an[k] = tanh(an[k]);
      }
      w = bias + out;
      a = an;
    }
    if (y)
      for (std::size_t j = 0; j < nv; ++j)
        for (std::size_t o = 0; o < n_out; ++o)
          y[(r0 + j) * n_out + o] = a[o * L + j];

    // Backward from d y0 / d y: delta *= 1 - a^2 below the output layer,
    // then prev = 0 + sum of delta * w in ascending output order.
    for (std::size_t k = 0; k < n_out * L; ++k) delta[k] = k < L ? 1.0 : 0.0;
    for (std::size_t l = nl; l-- > 0;) {
      const std::size_t in = sz[l], out = sz[l + 1];
      w -= out + in * out;
      if (l + 1 < nl) {
#pragma omp simd
        for (std::size_t k = 0; k < out * L; ++k)
          delta[k] *= (1.0 - a[k] * a[k]);
      }
      for (std::size_t i = 0; i < in; ++i) {
        double acc[L] = {};
        for (std::size_t o = 0; o < out; ++o) {
          const double wo = w[o * in + i];
          const double* d = delta + o * L;
#pragma omp simd
          for (std::size_t j = 0; j < L; ++j) acc[j] += wo * d[j];
        }
        for (std::size_t j = 0; j < L; ++j) prev[i * L + j] = acc[j];
      }
      std::swap(delta, prev);
      a -= in * L;
    }
    for (std::size_t j = 0; j < nv; ++j)
      for (std::size_t i = 0; i < n_in; ++i)
        dy0_dx[(r0 + j) * n_in + i] = delta[i * L + j];
  }
}

}  // namespace mlmd::simd::generic
