#pragma once
// Second-principles ferroelectric effective Hamiltonian (DESIGN.md
// Sec. 1; the class of models the paper cites as [13]). A periodic 2D
// lattice of 3-component polar-displacement vectors u_i (one per
// perovskite cell, the local soft-mode amplitude of PbTiO3-like
// material) with energy
//
//   E = sum_i [ A(w_i) |u_i|^2 + B |u_i|^4 - K u_{i,z}^2 ]   local wells
//     + J sum_<ij> |u_i - u_j|^2                              gradient
//     + D sum_<ij> (z_hat x e_ij) . (u_i x u_j)               chiral (DM-like)
//     - sum_i E_ext . u_i                                     field
//
// A < 0, B > 0 gives the ferroelectric double well; the chiral term
// stabilizes polar skyrmions. Photoexcitation enters through the per-cell
// excitation fraction w_i in A(w) = A0 (1 - 2 w): at w = 1/2 the well
// flattens (light-induced paraelectric softening — the mechanism of the
// paper's Fig. 3 switching, after Linker et al. [11]).
//
// This lattice is the ground truth that generates NNQMD training data
// (GS: w = 0; XS: w > 0) and the arena for the Fig. 3 experiment.

#include <array>
#include <cstddef>
#include <vector>

#include "mlmd/common/rng.hpp"

namespace mlmd::ferro {

using Vec3 = std::array<double, 3>;

struct FerroParams {
  double a0 = -1.0;   ///< quadratic well coefficient at w=0 (negative)
  double b = 1.0;     ///< quartic coefficient
  double k = 0.4;     ///< easy-axis (z) anisotropy
  double j = 0.6;     ///< nearest-neighbour gradient stiffness
  double d = 0.8;     ///< chiral coupling strength
  Vec3 e_ext = {0, 0, 0}; ///< external field
  double mass = 1.0;  ///< soft-mode effective mass
  double gamma = 0.5; ///< damping
  double dt = 0.02;   ///< time step
};

class FerroLattice {
public:
  FerroLattice(std::size_t lx, std::size_t ly, FerroParams p = {});

  std::size_t lx() const { return lx_; }
  std::size_t ly() const { return ly_; }
  std::size_t ncells() const { return lx_ * ly_; }
  std::size_t index(std::size_t x, std::size_t y) const { return x * ly_ + y; }

  Vec3& u(std::size_t x, std::size_t y) { return u_[index(x, y)]; }
  const Vec3& u(std::size_t x, std::size_t y) const { return u_[index(x, y)]; }
  std::vector<Vec3>& field() { return u_; }
  const std::vector<Vec3>& field() const { return u_; }

  const FerroParams& params() const { return p_; }
  FerroParams& params() { return p_; }

  /// Per-cell excitation fractions w in [0,1] (all zero = ground state).
  void set_excitation(const std::vector<double>& w);
  void set_uniform_excitation(double w);
  const std::vector<double>& excitation() const { return w_; }

  double energy() const;
  /// F = -dE/du for every cell.
  void forces(std::vector<Vec3>& f) const;

  /// Damped semi-implicit Euler step (deterministic quench dynamics):
  /// v <- (v + dt F/m) / (1 + gamma dt), then u <- u + dt v. Runs on the
  /// par::ThreadPool by blocks of rows; the new field is built in a
  /// persistent second buffer, so the result is bit-identical for every
  /// thread count and a warm step allocates nothing.
  void step();
  /// The same damped step driven by externally supplied forces `f` (one
  /// per cell, e.g. the Eq. (4) neural forces) instead of forces().
  void step(const std::vector<Vec3>& f);
  /// Langevin step at temperature kT.
  void step_langevin(double kT, Rng& rng);

  /// Equilibrium well depth |u| for the current GS parameters
  /// (analytic: |u|^2 = (K - A)/(2B) for the z-polarized minimum).
  double well_amplitude() const;

  /// Mean |u_z| over the lattice.
  double mean_uz() const;

  const std::vector<Vec3>& velocity() const { return v_; }
  std::vector<Vec3>& velocity() { return v_; }

private:
  /// forces() of row x into f[0, ly).
  void row_forces(std::size_t x, Vec3* f) const;
  /// One damped step with forces `f_ext`, or forces() when null.
  void advance(const Vec3* f_ext);

  std::size_t lx_, ly_;
  FerroParams p_;
  std::vector<Vec3> u_, v_;
  std::vector<double> w_;
  std::vector<Vec3> u_next_; ///< step() writes the new field here, then swaps
};

} // namespace mlmd::ferro
