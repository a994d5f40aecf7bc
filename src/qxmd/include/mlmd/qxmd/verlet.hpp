#pragma once
// Velocity-Verlet time integration of Eq. (1) with an optional Langevin
// thermostat. The force provider is a callback so the same integrator
// drives LJ reference MD (examples/nnqmd_md) and the NN forces of
// nnq::NnqmdDriver.

#include <functional>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/qxmd/atoms.hpp"

namespace mlmd::qxmd {

/// Computes forces (3N, overwritten) for the current positions and
/// returns the potential energy.
using ForceProvider = std::function<double(const Atoms&, std::vector<double>&)>;

enum class Thermostat { kNone, kLangevin };

struct VerletOptions {
  double dt = 40.0;           ///< MD step [a.u.] (~1 fs)
  Thermostat thermostat = Thermostat::kNone;
  double target_kt = 0.0;     ///< target temperature [Ha]
  double gamma = 1e-3;        ///< Langevin friction [1/a.u.]
  unsigned long long seed = 7;
};

class VelocityVerlet {
public:
  /// Evaluates the forces on `atoms` once, for the first half kick.
  VelocityVerlet(ForceProvider forces, const Atoms& atoms,
                 VerletOptions opt = {});

  /// One MD step; updates atoms in place. Returns the potential energy at
  /// the end of the step.
  double step(Atoms& atoms);

  /// Number of steps taken.
  long steps() const { return steps_; }

  const std::vector<double>& forces() const { return f_; }
  /// Potential energy of the last force evaluation.
  double potential_energy() const { return epot_; }

private:
  void apply_thermostat(Atoms& atoms);

  ForceProvider forces_fn_;
  VerletOptions opt_;
  std::vector<double> f_;
  double epot_ = 0.0;
  long steps_ = 0;
  Rng rng_;
};

} // namespace mlmd::qxmd
