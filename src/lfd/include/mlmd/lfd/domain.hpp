#pragma once
// LfdDomain: the Local Field Dynamics solver for one divide-and-conquer
// domain Omega_alpha (paper Fig. 2b, Eq. 2). Owns the domain's KS
// wavefunctions (SoA, GPU-resident in the paper; here the hot arrays),
// occupation numbers f_s, the local potential, and the DSA Hartree
// updater, and advances them by QD steps of Eq. (2):
//
//   vloc half phase -> per-axis kinetic sweeps (Peierls A-coupling) ->
//   vloc half phase -> (every nlp_every steps) GEMMified nonlocal
//   correction -> (every hartree_every steps) density + DSA Hartree + xc.
//
// The shadow-dynamics contract (Sec. V.A.3): the only inbound traffic is
// a small local-potential increment delta_vloc from QXMD; the only
// outbound traffic is the occupation-number change delta_f. Both are tiny
// compared to the wavefunction arrays, which never leave the domain.

#include <array>
#include <complex>
#include <vector>

#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/dsa.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/lfd/propagator.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/lfd/wavefunction.hpp"

namespace mlmd::lfd {

struct LfdOptions {
  double dt_qd = 0.04;                      ///< QD step [a.u.] (~1 attosecond)
  int nlp_every = 4;                        ///< nonlocal correction cadence
  int hartree_every = 8;                    ///< density/Hartree refresh cadence
  bool self_consistent = true;              ///< update vH + vxc from density
  int init_relax_steps = 20;                ///< imaginary-time steps toward
                                            ///< eigenstates at initialize()
  double electronic_kt = -1.0;              ///< >= 0: Fermi-Dirac initial
                                            ///< occupations at this kT
                                            ///< instead of aufbau filling
  PropOrder prop_order = PropOrder::kSecond; ///< kFourth: Suzuki-Yoshida
                                             ///< composite QD steps
};

template <class Real>
class LfdDomain {
public:
  LfdDomain(const grid::Grid3& g, std::size_t norb, LfdOptions opt = {});

  /// Set ions, build the initial state (orthonormal plane-wave-like
  /// orbitals, lowest `nfilled` doubly occupied), solve the initial
  /// Hartree potential, and snapshot psi0 for the scissor correction.
  void initialize(const std::vector<Ion>& ions, std::size_t nfilled);

  /// One QD step of Eq. (2) with vector potential `a` (velocity gauge).
  void qd_step(const double a[3]);

  /// N_QD steps with a constant vector potential.
  void run_qd(int nsteps, const double a[3]);

  // --- shadow dynamics interface (Sec. V.A.3) ---
  /// QXMD -> LFD: add a local-potential increment (atom motion during
  /// one MD step). Size must match the grid.
  void apply_delta_vloc(const std::vector<double>& dv);
  /// LFD -> QXMD: occupation change since the last call to this function.
  std::vector<double> take_delta_occupations();

  /// Rotate the orbitals to the eigenbasis of the current orbital-space
  /// Hamiltonian (subspace diagonalization, one GEMM): afterwards
  /// <psi_s|h|psi_s'> is diagonal and band energies are well defined.
  /// Occupations are permuted along. Returns the band energies.
  std::vector<double> diagonalize_subspace(const double a[3]);

  // --- observables ---
  std::vector<double> density_field() const { return density(wave_, f_); }
  std::array<double, 3> current(const double a[3]) const {
    return macroscopic_current(wave_, f_, a);
  }
  std::array<double, 3> dipole() const { return dipole_moment(wave_, f_); }
  double energy(const double a[3]) const;
  double n_exc() const; ///< photoexcited electrons vs initial occupations

  // --- state access ---
  SoAWave<Real>& wave() { return wave_; }
  const SoAWave<Real>& wave() const { return wave_; }
  std::vector<double>& occupations() { return f_; }
  const std::vector<double>& occupations() const { return f_; }
  const std::vector<double>& initial_occupations() const { return f0_; }
  const std::vector<double>& vloc() const { return vloc_; }
  const la::Matrix<std::complex<Real>>& psi0() const { return psi0_; }
  const grid::Grid3& grid() const { return wave_.grid; }
  std::size_t norb() const { return wave_.norb; }
  const LfdOptions& options() const { return opt_; }
  int steps_taken() const { return steps_; }

private:
  void refresh_potential();

  LfdOptions opt_;
  SoAWave<Real> wave_;
  la::Matrix<std::complex<Real>> psi0_;
  std::vector<double> f_, f0_, f_reported_;
  std::vector<double> vloc_;      ///< current total local potential
  std::vector<double> vion_;      ///< static ionic part
  std::vector<Ion> ions_;
  DsaHartree hartree_;
  int steps_ = 0;
};

extern template class LfdDomain<float>;
extern template class LfdDomain<double>;

} // namespace mlmd::lfd
