#pragma once
// Local Hamiltonian time-propagation kernel family: kin_prop (paper
// Secs. V.A.4-5 and V.B.2-4, Table III).
//
// The local propagator exp(-i*dt*h_loc) is split per Suzuki-Trotter into
// a half-step local-potential phase, per-axis kinetic sweeps, and another
// half-step phase (vloc_prop lives in vloc.hpp; this header owns the
// kinetic sweeps). Each axis kinetic term is decomposed into even- and
// odd-bond block-diagonal pieces a la Richardson [41]; every 2x2
// nearest-neighbour block is exponentiated analytically, so each sweep is
// exactly unitary. The electromagnetic vector potential enters as a
// Peierls phase on every bond (velocity gauge), which captures both the
// A.p and A^2 terms of Eq. (3) exactly on the lattice.
//
// Four implementations form the Table III optimization ladder:
//   kBaseline  - AoS layout, per-orbital sweeps, naive indexing
//   kReordered - SoA layout, orbital-innermost loops (Sec. V.B.2)
//   kBlocked   - + orbital blocking/tiling (Sec. V.B.3)
//   kParallel  - + hierarchical parallel regions over (plane x block)
//                ranges on par::ThreadPool (Sec. V.B.4)
// All variants compute the same propagator; tests assert bitwise-close
// agreement.

#include "mlmd/lfd/wavefunction.hpp"

namespace mlmd::lfd {

/// Parameters of one kinetic propagation step.
struct KinParams {
  double dt = 0.0;                 ///< QD time step [a.u.]
  double a[3] = {0.0, 0.0, 0.0};   ///< vector potential components [a.u.]
};

enum class KinVariant { kBaseline, kReordered, kBlocked, kParallel };


/// Apply exp(-i*dt*T) (kinetic + Peierls-coupled vector potential) to all
/// orbitals, SoA layout. Grid extents must be even (bond pairing).
template <class Real>
void kin_prop(SoAWave<Real>& w, const KinParams& p,
              KinVariant variant = KinVariant::kParallel);

/// Baseline variant on the orbital-major (AoS) layout.
template <class Real>
void kin_prop_aos(AoSWave<Real>& w, const KinParams& p);

/// Palindromic (time-symmetric) kinetic propagator: every bond sweep is
/// applied at dt/2 in forward order, then mirrored in reverse order, so
/// that K_sym(-dt) = K_sym(dt)^{-1} holds exactly. Twice the sweeps of
/// kin_prop, but the symmetric error term is what makes split_step
/// exactly time-reversible and the Yoshida composition genuinely fourth
/// order (propagator.hpp).
template <class Real>
void kin_prop_sym(SoAWave<Real>& w, const KinParams& p,
                  KinVariant variant = KinVariant::kParallel);

extern template void kin_prop_sym<float>(SoAWave<float>&, const KinParams&,
                                         KinVariant);
extern template void kin_prop_sym<double>(SoAWave<double>&, const KinParams&,
                                          KinVariant);

extern template void kin_prop<float>(SoAWave<float>&, const KinParams&, KinVariant);
extern template void kin_prop<double>(SoAWave<double>&, const KinParams&, KinVariant);
extern template void kin_prop_aos<float>(AoSWave<float>&, const KinParams&);
extern template void kin_prop_aos<double>(AoSWave<double>&, const KinParams&);

/// <T> kinetic energy of orbital `s` (finite-difference, same stencil as
/// the propagator; vector potential included). Used by tests/observables.
template <class Real>
double kinetic_energy(const SoAWave<Real>& w, std::size_t s, const double a[3]);

extern template double kinetic_energy<float>(const SoAWave<float>&, std::size_t,
                                             const double[3]);
extern template double kinetic_energy<double>(const SoAWave<double>&, std::size_t,
                                              const double[3]);

} // namespace mlmd::lfd
