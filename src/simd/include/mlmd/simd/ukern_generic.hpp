#pragma once
// Generic (ISA-agnostic) reference kernels. These templates define the
// bit-identity contract: every intrinsic variant in kernels_avx2.cpp /
// kernels_avx512.cpp must reproduce, per output element, exactly this
// operation sequence (separate IEEE multiply and add, ascending reduction
// index, single accumulator per element). The scalar dispatch table is
// built from instantiations of these templates; test_simd sweeps every
// other target against them bytewise.
//
// The `#pragma omp simd` hints vectorize only the contiguous j/s/y
// direction — per-element op order is unaffected (no reduction
// reassociation), so auto-vectorization of this file cannot change
// results. ferro_row has no intrinsic variant: ferro_row_avx2.cpp
// compiles this template for AVX2 with the vectorizer on.

#include <array>
#include <complex>
#include <cstddef>

#include "mlmd/simd/simd.hpp"

namespace mlmd::simd::generic {

/// acc[MR][NR] += sum_p a[p*MR + i] * b[p*NR + j]  (a, b packed,
/// zero-padded). Each element: t = a*b; acc = acc + t, ascending p.
template <class T, std::size_t MR, std::size_t NR>
void ukern_real(std::size_t kc, const T* __restrict__ ap,
                const T* __restrict__ bp, T* __restrict__ acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const T* a = ap + p * MR;
    const T* b = bp + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const T av = a[i];
      T* c = acc + i * NR;
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) c[j] += av * b[j];
    }
  }
}

/// Complex micro-kernel on split-real packed panels: a interleaved
/// (re,im) per row with stride 2*MR, b de-interleaved per p (NR reals
/// then NR imags), separate re/im accumulator planes. The manual
/// expansion matches the `cr += ar*xr - ai*xi` form (std::complex
/// operator* would route through the scalar, NaN-correct __mulsc3).
template <class R, std::size_t MR, std::size_t NR>
void ukern_cplx(std::size_t kc, const R* __restrict__ ap,
                const R* __restrict__ bp, R* __restrict__ accr,
                R* __restrict__ acci) {
  for (std::size_t p = 0; p < kc; ++p) {
    const R* a = ap + p * 2 * MR;
    const R* br = bp + p * 2 * NR;
    const R* bi = br + NR;
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

/// LFD bond rotation over n orbitals of rows u, v (kin_prop sweeps).
template <class R>
void rotate_rows(std::complex<R>* __restrict__ u,
                 std::complex<R>* __restrict__ v, R cs, R ar, R ai, R br,
                 R bi, std::size_t n) {
#pragma omp simd
  for (std::size_t s = 0; s < n; ++s) {
    const R ur = u[s].real(), ui = u[s].imag();
    const R vr = v[s].real(), vi = v[s].imag();
    u[s] = {cs * ur + ar * vr - ai * vi, cs * ui + ar * vi + ai * vr};
    v[s] = {cs * vr + br * ur - bi * ui, cs * vi + br * ui + bi * ur};
  }
}

/// Uniform complex phase multiply over n orbitals of one row.
template <class R>
void phase_row(std::complex<R>* __restrict__ row, R pr, R pi, std::size_t n) {
#pragma omp simd
  for (std::size_t s = 0; s < n; ++s) {
    const R r = row[s].real(), im = row[s].imag();
    row[s] = {pr * r - pi * im, pr * im + pi * r};
  }
}

/// Zero-padded scale-copy panel packer (PackPanelFn contract):
///   dst[p*W + j] = alpha * src[p*ld + j]  (j < w),  0  (w <= j < W).
/// alpha == 1 is a plain copy so packing never rewrites payload bits.
template <class R>
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

/// The ferro lattice's damped semi-implicit Euler update of one value,
/// velocity first: v <- (v + dt f / m) / (1 + gamma dt), then returns the
/// new u = u + dt v. Always inlined, like ferro_force.
[[gnu::always_inline]] inline double ferro_update(const FerroCoeffs& p,
                                                  double f, double u,
                                                  double& v) {
  v = (v + p.dt * f / p.mass) / p.damp;
  return u + p.dt * v;
}

/// FerroRowFn: ferro_force then ferro_update for each cell of one row.
/// The two wrap cells are peeled, so the interior is one `omp simd` loop
/// of unit-stride loads; vector lanes repeat the scalar operation
/// sequence, and the kernel TUs cannot contract it into FMAs, so every
/// target writes the same bits. The Target parameter only keys the
/// instantiation: each kernel TU instantiates its own, so the linker
/// never merges copies built with different -m flags.
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

}  // namespace mlmd::simd::generic
