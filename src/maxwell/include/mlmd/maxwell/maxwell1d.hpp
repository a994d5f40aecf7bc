#pragma once
// Multiscale Maxwell solver (paper Secs. III, V.A.4; the SALMON-style
// macroscopic/microscopic scheme [25]). Light propagates along a 1D
// macroscopic axis X; each macro cell may host one microscopic DC domain.
// The transverse vector potential A_y(X, t) obeys
//
//   (1/c^2) d^2A/dt^2 = d^2A/dX^2 + (4 pi / c) J_y(X, t),
//
// where J_y is the macroscopic current density returned by the domain at
// that cell (TDCDFT current, paper Sec. V.B.5). Leapfrog in time,
// second-order central differences in space, first-order Mur absorbing
// boundaries, and a soft source injecting the incident pulse.

#include <cstddef>
#include <vector>

#include "mlmd/maxwell/pulse.hpp"

namespace mlmd::maxwell {

class Maxwell1D {
public:
  /// ncells macro cells of width dx [Bohr]; dt [a.u.] must satisfy the
  /// CFL condition c*dt <= dx (checked).
  Maxwell1D(std::size_t ncells, double dx, double dt);

  /// Attach a soft source at `cell` injecting pulse.efield(t).
  void set_source(std::size_t cell, const Pulse& pulse);

  /// Advance one step. `jy` holds the macroscopic current density in each
  /// cell (zeros where vacuum); size must be ncells.
  void step(const std::vector<double>& jy);

  double time() const { return t_; }
  std::size_t ncells() const { return a_.size(); }
  double dx() const { return dx_; }
  double dt() const { return dt_; }

  /// Vector potential A_y at a cell (what Eq. 3 consumes as A_X(alpha)).
  double a_at(std::size_t cell) const { return a_.at(cell); }
  const std::vector<double>& a() const { return a_; }

  /// Field energy density integral (E^2 + B^2)/(8 pi) dx.
  double field_energy() const;

private:
  double dx_, dt_, t_ = 0.0;
  std::vector<double> a_, a_prev_;
  bool has_source_ = false;
  std::size_t source_cell_ = 0;
  Pulse pulse_;
  // Mur boundary memory.
  double left_neighbor_prev_ = 0.0, right_neighbor_prev_ = 0.0;
};

} // namespace mlmd::maxwell
