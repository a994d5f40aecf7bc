#pragma once
// Shifted-force Lennard-Jones pair potential. Serves as the classical MM
// substrate (the low-fidelity end of the QM/MM metamodel axis, paper
// Sec. V.A.8) and as ground truth for MD integrator tests.

#include <vector>

#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"

namespace mlmd::qxmd {

struct LjParams {
  double epsilon = 0.01; ///< well depth [Ha]
  double sigma = 4.0;    ///< length scale [Bohr]
  double rc = 10.0;      ///< cutoff [Bohr]
};

/// Energy and forces of the shifted-force LJ fluid. Forces are written to
/// `forces` (3N, overwritten). Returns the potential energy. The
/// shifted-force form keeps both U and F continuous at the cutoff, so
/// energy conservation tests are meaningful.
double lj_energy_forces(const Atoms& atoms, const NeighborList& nl,
                        const LjParams& p, std::vector<double>& forces);

} // namespace mlmd::qxmd
