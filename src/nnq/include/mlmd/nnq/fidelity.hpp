#pragma once
// Fidelity-scaling instrumentation (paper Sec. V.A.6): NNQMD runs fail
// when rare unphysical force predictions blow up the dynamics, and the
// failure time shrinks with system size as t_failure ~ N^alpha (alpha =
// -0.29 for Allegro, -0.14 for Allegro-Legato). We reproduce the
// measurement: drive a FerroLattice with a LatticeModel's forces, declare
// failure at the first force outlier (|F| > threshold or non-finite), and
// fit the power-law exponent across sizes.

#include <cstddef>
#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/nnq/allegro.hpp"

namespace mlmd::nnq {

struct FailureOptions {
  double force_threshold = 50.0; ///< outlier limit on any |F| component
  double kT = 0.05;              ///< Langevin temperature for the run
  long max_steps = 5000;
  unsigned long long seed = 5;
  double weight_noise = 0.0;     ///< extra N(0, sigma) on each weight per
                                 ///< inference (models rare mispredictions)
};

/// Steps survived before the first force outlier (max_steps if none).
long time_to_failure(const LatticeModel& model, std::size_t lx, std::size_t ly,
                     const ferro::FerroParams& params, FailureOptions opt = {});

/// Fit log(t) = c + alpha * log(N); returns alpha (least squares).
double powerlaw_exponent(const std::vector<double>& n,
                         const std::vector<double>& t);

} // namespace mlmd::nnq
