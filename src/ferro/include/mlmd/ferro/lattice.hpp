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
#include <cstdint>
#include <span>
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

  /// u and v are stored as three planes each (every cell's x component,
  /// then every y, then every z), so the row kernel streams unit-stride
  /// rows. Only this class and the simd row kernel index that layout;
  /// everyone else goes through the accessors below.
  Vec3 u(std::size_t x, std::size_t y) const {
    const std::size_t i = index(x, y), n = ncells();
    return {u_[i], u_[n + i], u_[2 * n + i]};
  }
  void set_u(std::size_t x, std::size_t y, const Vec3& a);

  /// Interleaved copies of the whole field and velocity, one Vec3 per
  /// cell in index() order (snapshots, checkpoints, tests); the setters
  /// take the same layout and throw on a size mismatch.
  std::vector<Vec3> u_cells() const;
  void set_u_cells(const std::vector<Vec3>& cells);
  std::vector<Vec3> v_cells() const;
  void set_v_cells(const std::vector<Vec3>& cells);

  /// The whole u / v store, 3 * ncells() doubles in the layout above,
  /// for sweeps that treat every value alike (fault hooks, finiteness
  /// checks, clamps).
  std::span<double> u_store() { return u_; }
  std::span<double> v_store() { return v_; }

  /// Whether some value of u has magnitude bits above `bound` (the
  /// simd::KernelTable::any_above test; ft::StepSentinel::bound_bits()
  /// gives the guard's). It scans by the row blocks step() writes, on the
  /// pool, so each thread reads rows its own cache already holds.
  bool u_above(std::uint64_t bound) const;

  const FerroParams& params() const { return p_; }
  FerroParams& params() { return p_; }

  /// Per-cell excitation fractions w in [0,1] (all zero = ground state).
  void set_excitation(const std::vector<double>& w);
  void set_uniform_excitation(double w);
  const std::vector<double>& excitation() const { return w_; }

  double energy() const;
  /// F = -dE/du for every cell.
  void forces(std::vector<Vec3>& f) const;

  /// Damped semi-implicit Euler step (deterministic quench dynamics) of
  /// the unit-mass soft mode: v <- (v + dt F) / (1 + gamma dt), then
  /// u <- u + dt v. Runs on the par::ThreadPool by blocks of rows, one
  /// simd::KernelTable::ferro_row call per row; the new field is built in
  /// a persistent second buffer, so the result is bit-identical for every
  /// thread count and SIMD target, and a warm step allocates nothing.
  void step();
  /// The same damped step driven by externally supplied forces `f` (one
  /// per cell, e.g. the Eq. (4) neural forces) instead of forces().
  void step(const std::vector<Vec3>& f);
  /// Langevin step at temperature kT.
  void step_langevin(double kT, Rng& rng);
  /// The same Langevin step driven by externally supplied forces `f`
  /// (one per cell, e.g. a LatticeModel's) instead of forces().
  void step_langevin(double kT, Rng& rng, const std::vector<Vec3>& f);

  /// Equilibrium well depth |u| for the current GS parameters
  /// (analytic: |u|^2 = (K - A)/(2B) for the z-polarized minimum).
  double well_amplitude() const;

  /// Mean |u_z| over the lattice.
  double mean_uz() const;

private:
  std::size_t lx_, ly_;
  FerroParams p_;
  std::vector<double> u_, v_; ///< planes x, y, z of ncells() each
  std::vector<double> w_;
  std::vector<double> u_next_; ///< step() writes the new field here, then swaps
};

} // namespace mlmd::ferro
