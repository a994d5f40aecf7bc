#pragma once
// Surface hopping U_SH (paper Eq. 2): perturbative update of KS
// occupation numbers f_s driven by nonadiabatic coupling from slow atomic
// motion, applied once per MD step at the Ehrenfest/SH timescale boundary
// t ~ hbar/DeltaE (~1 fs).
//
// Implementation: diagonalize the orbital-space Hamiltonian at the
// previous and current MD step; the adiabatic-state overlap matrix
// D = V_prev^H V_now yields fewest-switches-style transition rates
// W_ab ~ |D_ab|^2 / dt, upward transitions damped by a detailed-balance
// Boltzmann factor. Populations are propagated by the master equation
// (deterministic, reproducible) or by stochastic hops (per-trajectory).
// Both conserve total occupation and keep every f in [0, f_max].

#include <complex>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/eig.hpp"
#include "mlmd/la/matrix.hpp"

namespace mlmd::qxmd {

struct ShOptions {
  double kt = 0.001;     ///< electronic temperature for detailed balance [Ha]
  double f_max = 2.0;    ///< per-orbital occupation bound (spin degenerate)
  double rate_scale = 1.0; ///< overall nonadiabatic coupling strength
  bool stochastic = false;
  unsigned long long seed = 11;
};

class SurfaceHopping {
public:
  explicit SurfaceHopping(ShOptions opt = {}) : opt_(opt), rng_(opt.seed) {}

  /// Feed the current orbital Hamiltonian and advance occupations across
  /// one MD step of length dt_md. On the first call only the reference
  /// eigenbasis is stored (no hop). `f` is modified in place.
  void step(const la::Matrix<std::complex<double>>& h_orbital,
            std::vector<double>& f, double dt_md);

  /// Adiabatic energies at the last step() call.
  const std::vector<double>& energies() const { return energies_; }

  /// Transition-rate matrix of the last step (for tests/analysis).
  const la::Matrix<double>& last_rates() const { return rates_; }

  void reset() { have_prev_ = false; }

private:
  ShOptions opt_;
  Rng rng_;
  bool have_prev_ = false;
  la::EigResult prev_;
  std::vector<double> energies_;
  la::Matrix<double> rates_;
};

} // namespace mlmd::qxmd
