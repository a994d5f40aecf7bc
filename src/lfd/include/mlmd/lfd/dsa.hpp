#pragma once
// Iterative dynamical-simulated-annealing (DSA) Hartree updater
// (paper Sec. V.A.5, after Car-Parrinello [42]).
//
// Instead of re-solving Poisson from scratch every QD step, the Hartree
// potential is treated as a damped dynamical field that follows the
// slowly-varying density:
//   phi_ddot = c^2 (lap(phi) + 4 pi rho) - gamma phi_dot
// integrated with a few Verlet sub-steps per QD step. For a cold start or
// when the residual drifts, solve() falls back to a converged multigrid
// solve. This is the "locally fast" updater riding on the "globally
// scalable" multigrid.

#include <memory>
#include <vector>

#include "mlmd/grid/grid3.hpp"
#include "mlmd/mg/multigrid.hpp"

namespace mlmd::lfd {

class DsaHartree {
public:
  explicit DsaHartree(const grid::Grid3& g);

  /// Converged multigrid solve of -lap(phi) = 4 pi rho (resets history).
  void solve(const std::vector<double>& rho);

  /// Cheap damped-dynamics update tracking the new density.
  void update(const std::vector<double>& rho);

  const std::vector<double>& potential() const { return phi_; }

  /// Velocity of the dynamical Hartree field (the DSA updater is
  /// second-order in time: its state is phi AND phi_dot).
  const std::vector<double>& potential_dot() const { return phi_dot_; }

  /// ||lap(phi) + 4 pi rho|| / ||4 pi rho||.
  double relative_residual(const std::vector<double>& rho) const;

  /// Hartree energy 0.5 * integral rho * phi dv.
  double energy(const std::vector<double>& rho) const;

private:
  std::vector<double> laplacian(const std::vector<double>& u) const;

  grid::Grid3 grid_;
  mg::Multigrid mg_;
  std::vector<double> phi_, phi_dot_;
};

} // namespace mlmd::lfd
