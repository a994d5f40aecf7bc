#pragma once
// Nonlocal time-propagation, GEMMified (paper Secs. V.A.5 and V.B.5,
// Eq. 5). Switching from the finite-difference to the KS-orbital
// representation turns the nonlocal correction into two dense complex
// GEMMs:
//   CGEMM(1):  S = Psi(0)^H Psi(t) * dv          (N_orb x N_orb overlap)
//   CGEMM(2):  Psi(t) += delta * Psi(0) * S      (rank-N_orb update)
// which is the real-time scissor correction of [44]. Because the
// correction is perturbative (|delta| << 1), it tolerates low-precision
// GEMM: the ComputeMode parameter selects FP-native or BF16{,x2,x3}
// arithmetic (Sec. VI.C).

#include <complex>

#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/wavefunction.hpp"

namespace mlmd::lfd {

/// Apply the scissor nonlocal correction Psi += delta * Psi0 (Psi0^H Psi dv).
/// Psi0 must have the same shape as w.psi. After the update every orbital
/// is renormalized (the normalized-Cayley denominator of Eq. 2).
template <class Real>
void nlp_prop(SoAWave<Real>& w, const la::Matrix<std::complex<Real>>& psi0,
              std::complex<double> delta,
              la::ComputeMode mode = la::ComputeMode::kNative);

extern template void nlp_prop<float>(SoAWave<float>&,
                                     const la::Matrix<std::complex<float>>&,
                                     std::complex<double>, la::ComputeMode);
extern template void nlp_prop<double>(SoAWave<double>&,
                                      const la::Matrix<std::complex<double>>&,
                                      std::complex<double>, la::ComputeMode);

/// Renormalize every orbital to unit L2 norm (dv-weighted).
template <class Real>
void renormalize(SoAWave<Real>& w);

extern template void renormalize<float>(SoAWave<float>&);
extern template void renormalize<double>(SoAWave<double>&);

} // namespace mlmd::lfd
