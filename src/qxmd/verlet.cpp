#include "mlmd/qxmd/verlet.hpp"

#include <cmath>

namespace mlmd::qxmd {

VelocityVerlet::VelocityVerlet(ForceProvider forces, VerletOptions opt)
    : forces_fn_(std::move(forces)), opt_(opt), rng_(opt.seed) {}

double VelocityVerlet::step(Atoms& atoms) {
  const std::size_t n = atoms.n();
  const double dt = opt_.dt;

  if (!have_forces_) {
    forces_fn_(atoms, f_);
    have_forces_ = true;
  }

  // Half kick + drift.
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 * dt / atoms.mass[i];
    for (int k = 0; k < 3; ++k) {
      atoms.vel(i)[k] += c * f_[3 * i + k];
      atoms.pos(i)[k] += dt * atoms.vel(i)[k];
    }
    atoms.box.wrap(atoms.pos(i));
  }

  // New forces + half kick.
  const double epot = forces_fn_(atoms, f_);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 * dt / atoms.mass[i];
    for (int k = 0; k < 3; ++k) atoms.vel(i)[k] += c * f_[3 * i + k];
  }

  apply_thermostat(atoms);
  ++steps_;
  return epot;
}

void VelocityVerlet::apply_thermostat(Atoms& atoms) {
  if (opt_.thermostat != Thermostat::kLangevin) return;
  // BAOAB-style O-step: v <- c1 v + c2 * xi, after the Verlet update.
  const double c1 = std::exp(-opt_.gamma * opt_.dt);
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    const double c2 =
        std::sqrt((1.0 - c1 * c1) * opt_.target_kt / atoms.mass[i]);
    for (int k = 0; k < 3; ++k)
      atoms.vel(i)[k] = c1 * atoms.vel(i)[k] + c2 * rng_.normal();
  }
}

} // namespace mlmd::qxmd
