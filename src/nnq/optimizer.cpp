#include "mlmd/nnq/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace mlmd::nnq {
namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

} // namespace

Adam::Adam(std::size_t nparams, double lr)
    : lr_(lr), m_(nparams, 0.0), v_(nparams, 0.0) {}

void Adam::step(std::vector<double>& w, const std::vector<double>& grad) {
  if (w.size() != m_.size() || grad.size() != m_.size())
    throw std::invalid_argument("Adam::step: size mismatch");
  ++t_;
  const double b1t = 1.0 - std::pow(kBeta1, t_);
  const double b2t = 1.0 - std::pow(kBeta2, t_);
  for (std::size_t i = 0; i < w.size(); ++i) {
    m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i];
    v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grad[i] * grad[i];
    const double mhat = m_[i] / b1t;
    const double vhat = v_[i] / b2t;
    w[i] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
  }
}

double grad_norm(const std::vector<double>& g) {
  double s = 0.0;
  for (double x : g) s += x * x;
  return std::sqrt(s);
}

std::vector<double> sam_perturb(std::vector<double>& w, const std::vector<double>& g,
                                double rho) {
  const double n = grad_norm(g) + 1e-12;
  std::vector<double> disp(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    disp[i] = rho * g[i] / n;
    w[i] += disp[i];
  }
  return disp;
}

} // namespace mlmd::nnq
