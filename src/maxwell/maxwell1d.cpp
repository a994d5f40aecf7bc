#include "mlmd/maxwell/maxwell1d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/units.hpp"

namespace mlmd::maxwell {

Maxwell1D::Maxwell1D(std::size_t ncells, double dx, double dt)
    : dx_(dx), dt_(dt), a_(ncells, 0.0), a_prev_(ncells, 0.0) {
  if (ncells < 3) throw std::invalid_argument("Maxwell1D: need >= 3 cells");
  if (units::c_light * dt > dx)
    throw std::invalid_argument("Maxwell1D: CFL violated (c*dt > dx)");
}

void Maxwell1D::set_source(std::size_t cell, const Pulse& pulse) {
  if (cell >= a_.size()) throw std::out_of_range("Maxwell1D: source cell");
  has_source_ = true;
  source_cell_ = cell;
  pulse_ = pulse;
}

void Maxwell1D::step(const std::vector<double>& jy) {
  if (jy.size() != a_.size()) throw std::invalid_argument("Maxwell1D: jy size");
  const std::size_t n = a_.size();
  const double c = units::c_light;
  const double c2dt2 = c * c * dt_ * dt_;
  const double inv_dx2 = 1.0 / (dx_ * dx_);
  flops::add(10ull * n);

  std::vector<double> a_next(n);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double lap = (a_[i - 1] - 2.0 * a_[i] + a_[i + 1]) * inv_dx2;
    a_next[i] = 2.0 * a_[i] - a_prev_[i] +
                c2dt2 * (lap + 4.0 * std::numbers::pi / c * jy[i]);
  }
  // Soft source: add the incident pulse's contribution to dA/dt as an
  // additive term (transparent to scattered waves).
  if (has_source_) {
    // E = -(1/c) dA/dt  =>  dA contribution = -c E dt.
    a_next[source_cell_] += -c * pulse_.efield(t_ + dt_) * dt_;
  }
  // First-order Mur absorbing boundaries.
  const double k = (c * dt_ - dx_) / (c * dt_ + dx_);
  a_next[0] = a_[1] + k * (a_next[1] - a_[0]);
  a_next[n - 1] = a_[n - 2] + k * (a_next[n - 2] - a_[n - 1]);

  a_prev_ = std::move(a_);
  a_ = std::move(a_next);
  t_ += dt_;
}

double Maxwell1D::field_energy() const {
  const double c = units::c_light;
  double e = 0.0;
  for (std::size_t i = 0; i + 1 < a_.size(); ++i) {
    const double et = -(a_[i] - a_prev_[i]) / (c * dt_);
    const double bz = (a_[i + 1] - a_[i]) / dx_; // B = curl A (1D proxy)
    e += (et * et + bz * bz);
  }
  return e * dx_ / (8.0 * std::numbers::pi);
}

} // namespace mlmd::maxwell
