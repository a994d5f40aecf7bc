#pragma once
// Atomistic XS-NNQMD molecular dynamics driver: NN forces (GS model, or
// GS/XS mixing per Eq. 4) on periodic neighbor-list rebuilds, stepped by
// qxmd::VelocityVerlet with its optional Langevin thermostat, and
// velocity-frame capture for the spectroscopy pipeline (VACF ->
// vibrational DOS, Sec. V.A.6 / [47]).
//
// Also hosts the dataset factory that turns reference-potential (LJ)
// configurations into descriptor-space training data, closing the loop:
// reference MD -> dataset -> train -> NNQMD MD.

#include <optional>
#include <vector>

#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/qxmd/verlet.hpp"

namespace mlmd::nnq {

struct MdOptions {
  double dt = 20.0;            ///< [a.u.]
  int rebuild_every = 10;      ///< neighbor-list refresh cadence
  double langevin_kt = -1.0;   ///< < 0: NVE; >= 0: Langevin at this kT
  double langevin_gamma = 2e-3;
  double n_sat = 1.0;          ///< Eq. (4) saturation scale
  unsigned long long seed = 17;
};

class NnqmdDriver {
public:
  /// GS-only dynamics when `xs` is null; Eq. (4) mixing otherwise.
  NnqmdDriver(const AtomModel& gs, const AtomModel* xs, qxmd::Atoms atoms,
              MdOptions opt = {});
  // The integrator's force provider points at this driver.
  NnqmdDriver(const NnqmdDriver&) = delete;
  NnqmdDriver& operator=(const NnqmdDriver&) = delete;

  /// One MD step with excitation count n_exc (0 = ground state). Returns
  /// the NN potential energy.
  double step(double n_exc = 0.0);

  const qxmd::Atoms& atoms() const { return atoms_; }
  qxmd::Atoms& atoms() { return atoms_; }
  long steps() const { return vv_.steps(); }
  const std::vector<double>& forces() const { return vv_.forces(); }

  /// Total energy (NN potential + kinetic) at the last step.
  double total_energy() const {
    return vv_.potential_energy() + atoms_.kinetic_energy();
  }

  /// Capture velocities each step into `frames` (for VACF analysis).
  void record_velocities(std::vector<std::vector<double>>* frames) {
    frames_ = frames;
  }

private:
  /// vv_'s force provider: refreshes the neighbor list on schedule, then
  /// writes the GS forces, or the Eq. (4) mix at n_exc_, into `f`.
  double compute_forces(const qxmd::Atoms& atoms, std::vector<double>& f);

  const AtomModel& gs_;
  const AtomModel* xs_;
  qxmd::Atoms atoms_;
  MdOptions opt_;
  std::optional<qxmd::NeighborList> nl_;
  std::vector<double> f_xs_;
  double n_exc_ = 0.0; ///< excitation count of the step in flight
  std::vector<std::vector<double>>* frames_ = nullptr;
  qxmd::VelocityVerlet vv_; ///< last: its constructor calls compute_forces
};

/// Build a training dataset from randomized copies of `base`: each sample
/// jitters positions by N(0, displacement), computes descriptor features
/// under `basis`, and labels with the shifted-force LJ reference energy.
Dataset make_lj_dataset(const qxmd::Atoms& base, const RadialBasis& basis,
                        const qxmd::LjParams& lj, std::size_t nconfigs,
                        double displacement, unsigned long long seed);

/// Loss-surface sharpness: max increase of the per-site energy MSE over
/// `nsamples` random unit weight perturbations of norm rho. SAM training
/// (Allegro-Legato) targets exactly this quantity.
double loss_sharpness(const Mlp& net, const Dataset& data, double rho,
                      int nsamples, unsigned long long seed);

} // namespace mlmd::nnq
