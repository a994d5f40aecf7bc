#include "mlmd/nnq/fidelity.hpp"

#include <cmath>
#include <stdexcept>

#include "mlmd/common/rng.hpp"

namespace mlmd::nnq {

long time_to_failure(const LatticeModel& model, std::size_t lx, std::size_t ly,
                     const ferro::FerroParams& params, FailureOptions opt) {
  ferro::FerroLattice lat(lx, ly, params);
  Rng rng(opt.seed);
  const double amp = std::max(lat.well_amplitude(), 0.3);
  for (std::size_t x = 0; x < lx; ++x)
    for (std::size_t y = 0; y < ly; ++y)
      lat.set_u(x, y, {0.1 * amp * rng.normal(), 0.1 * amp * rng.normal(),
                       amp + 0.1 * amp * rng.normal()});

  // Optionally perturb a copy of the weights each step: a controlled
  // stand-in for the rare mispredictions that sharpness-aware training
  // suppresses. A sharper model (larger grad-input sensitivity) amplifies
  // the same weight noise into larger force outliers.
  LatticeModel noisy = model;

  for (long step = 0; step < opt.max_steps; ++step) {
    const LatticeModel* use = &model;
    if (opt.weight_noise > 0.0) {
      noisy.net().params() = model.net().params();
      for (auto& w : noisy.net().params()) w += opt.weight_noise * rng.normal();
      use = &noisy;
    }
    auto f = use->forces(lat);
    for (const auto& fi : f)
      for (double c : fi)
        if (!std::isfinite(c) || std::abs(c) > opt.force_threshold) return step;
    lat.step_langevin(opt.kT, rng, f);
  }
  return opt.max_steps;
}

double powerlaw_exponent(const std::vector<double>& n, const std::vector<double>& t) {
  if (n.size() != t.size() || n.size() < 2)
    throw std::invalid_argument("powerlaw_exponent: need >= 2 points");
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double m = static_cast<double>(n.size());
  for (std::size_t i = 0; i < n.size(); ++i) {
    const double x = std::log(n[i]);
    const double y = std::log(std::max(t[i], 1.0));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  return (m * sxy - sx * sy) / (m * sxx - sx * sx);
}

} // namespace mlmd::nnq
