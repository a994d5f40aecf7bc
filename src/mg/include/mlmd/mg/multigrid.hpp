#pragma once
// Geometric multigrid Poisson solver — the "globally sparse, scalable"
// member of the paper's GSLF/GSLD solver pair (Sec. V.A.2), standing in
// for the O(N) tree-based multigrid that represents the global KS
// potential. Solves  -lap(phi) = f  with periodic boundary conditions via
// V-cycles (red-black Gauss-Seidel smoothing, full-weighting restriction,
// trilinear prolongation).

#include <cstddef>
#include <vector>

namespace mlmd::mg {

struct MgOptions {
  int max_vcycles = 50;
  double tol = 1e-8;        ///< relative residual target ||r||/||f||
};

/// Result of a solve: converged flag, cycles used, final relative residual.
struct MgResult {
  bool converged = false;
  int vcycles = 0;
  double rel_residual = 0.0;
};

/// Periodic 3D Poisson solver on an nx x ny x nz grid with spacings
/// (hx, hy, hz), row-major with z fastest.
class Multigrid {
public:
  Multigrid(std::size_t nx, std::size_t ny, std::size_t nz, double hx, double hy,
            double hz, MgOptions opt = {});

  /// Solve -lap(phi) = f. The mean of f is projected out (periodic
  /// solvability) and phi is returned zero-mean. `phi` may carry an
  /// initial guess; pass zeros for a cold start.
  MgResult solve(const std::vector<double>& f, std::vector<double>& phi) const;

  /// One V-cycle on the finest level (exposed for convergence-rate tests).
  void vcycle(std::vector<double>& phi, const std::vector<double>& f) const;

  /// Residual r = f + lap(phi) on the finest level; returns ||r||_2.
  double residual_norm(const std::vector<double>& phi,
                       const std::vector<double>& f) const;

  int levels() const { return static_cast<int>(levels_.size()); }

private:
  struct Level {
    std::size_t nx, ny, nz;
    double hx, hy, hz;
  };

  void smooth(const Level& lv, std::vector<double>& u, const std::vector<double>& f,
              int sweeps) const;
  std::vector<double> compute_residual(const Level& lv, const std::vector<double>& u,
                                       const std::vector<double>& f) const;
  std::vector<double> restrict_full_weight(const Level& fine,
                                           const std::vector<double>& r) const;
  void prolong_add(const Level& fine, const std::vector<double>& coarse,
                   std::vector<double>& u) const;
  void vcycle_level(std::size_t li, std::vector<double>& u,
                    const std::vector<double>& f) const;

  std::vector<Level> levels_;
  MgOptions opt_;
};

} // namespace mlmd::mg
