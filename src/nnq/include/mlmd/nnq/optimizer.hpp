#pragma once
// Optimizers for NNQMD training: Adam, plus the sharpness-aware
// minimization (SAM) wrapper that turns an Allegro-style model into
// Allegro-Legato (paper Sec. V.A.6): before each descent step the weights
// are perturbed to the local worst case w + rho * g/|g|, the gradient is
// re-evaluated there, and the step uses that flatter-minimum gradient —
// regularizing loss-surface curvature and pushing force-outlier failures
// out in time.

#include <cstddef>
#include <vector>

namespace mlmd::nnq {

/// Adam with the usual moment decays beta1 = 0.9, beta2 = 0.999 and
/// eps = 1e-8; only the learning rate is the caller's.
class Adam {
public:
  Adam(std::size_t nparams, double lr);

  /// Apply one update: w -= lr * mhat / (sqrt(vhat) + eps).
  void step(std::vector<double>& w, const std::vector<double>& grad);

  long steps() const { return t_; }

private:
  double lr_;
  std::vector<double> m_, v_;
  long t_ = 0;
};

/// L2 norm of a gradient vector.
double grad_norm(const std::vector<double>& g);

/// SAM ascent perturbation: w += rho * g / |g|. Returns the applied
/// displacement so the caller can undo it after the second gradient.
std::vector<double> sam_perturb(std::vector<double>& w, const std::vector<double>& g,
                                double rho);

} // namespace mlmd::nnq
