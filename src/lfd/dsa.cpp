#include "mlmd/lfd/dsa.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::lfd {

DsaHartree::DsaHartree(const grid::Grid3& g, DsaOptions opt)
    : grid_(g), opt_(opt), mg_(g.nx, g.ny, g.nz, g.hx, g.hy, g.hz),
      phi_(g.size(), 0.0), phi_dot_(g.size(), 0.0) {}

std::vector<double> DsaHartree::laplacian(const std::vector<double>& u) const {
  std::vector<double> lap(u.size());
  const double cx = 1.0 / (grid_.hx * grid_.hx);
  const double cy = 1.0 / (grid_.hy * grid_.hy);
  const double cz = 1.0 / (grid_.hz * grid_.hz);
  flops::add(10ull * u.size());
  // Flattened (x, y) columns, each writing its own z-run; one chunk covers
  // >= 2048 grid points, so an 8^3 domain is a single inline chunk.
  const std::size_t grain = std::max<std::size_t>(1, 2048 / grid_.nz);
  par::parallel_for(0, grid_.nx * grid_.ny, grain, [&](std::size_t w0, std::size_t w1) {
    for (std::size_t w = w0; w < w1; ++w) {
      const std::size_t x = w / grid_.ny;
      const std::size_t y = w % grid_.ny;
      const std::size_t xm = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(x) - 1, grid_.nx);
      const std::size_t xp = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(x) + 1, grid_.nx);
      const std::size_t ym = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(y) - 1, grid_.ny);
      const std::size_t yp = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(y) + 1, grid_.ny);
      for (std::size_t z = 0; z < grid_.nz; ++z) {
        const std::size_t zm = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(z) - 1, grid_.nz);
        const std::size_t zp = grid::Grid3::wrap(static_cast<std::ptrdiff_t>(z) + 1, grid_.nz);
        lap[grid_.index(x, y, z)] =
            cx * (u[grid_.index(xm, y, z)] + u[grid_.index(xp, y, z)]) +
            cy * (u[grid_.index(x, ym, z)] + u[grid_.index(x, yp, z)]) +
            cz * (u[grid_.index(x, y, zm)] + u[grid_.index(x, y, zp)]) -
            2.0 * (cx + cy + cz) * u[grid_.index(x, y, z)];
      }
    }
  });
  return lap;
}

void DsaHartree::solve(const std::vector<double>& rho) {
  std::vector<double> f(rho.size());
  const double fourpi = 4.0 * std::numbers::pi;
  for (std::size_t i = 0; i < rho.size(); ++i) f[i] = fourpi * rho[i];
  mg_.solve(f, phi_);
  phi_dot_.assign(phi_.size(), 0.0);
}

void DsaHartree::update(const std::vector<double>& rho) {
  if (rho.size() != phi_.size()) throw std::invalid_argument("DsaHartree: size");
  const double fourpi = 4.0 * std::numbers::pi;
  // Effective pseudo-time step chosen for stability of the explicit wave
  // update: dt^2 c^2 * ||lap|| < 2 with ||lap|| ~ 2*sum(1/h^2).
  const double lapnorm = 2.0 * (1.0 / (grid_.hx * grid_.hx) +
                                1.0 / (grid_.hy * grid_.hy) +
                                1.0 / (grid_.hz * grid_.hz));
  const double dt2c2 = opt_.c2 * 2.0 / lapnorm;

  for (int it = 0; it < opt_.substeps; ++it) {
    auto lap = laplacian(phi_);
    flops::add(6ull * phi_.size());
    par::parallel_for(0, phi_.size(), 4096, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double accel = lap[i] + fourpi * rho[i];
        phi_dot_[i] = (1.0 - opt_.gamma) * phi_dot_[i] + dt2c2 * accel;
        phi_[i] += phi_dot_[i];
      }
    });
  }
  // Keep the potential zero-mean (periodic gauge) and re-solve if the
  // cheap updater has fallen too far behind.
  double mean = 0.0;
  for (double v : phi_) mean += v;
  mean /= static_cast<double>(phi_.size());
  for (double& v : phi_) v -= mean;
  if (relative_residual(rho) > opt_.resolve_tol) solve(rho);
}

double DsaHartree::relative_residual(const std::vector<double>& rho) const {
  const double fourpi = 4.0 * std::numbers::pi;
  auto lap = laplacian(phi_);
  double rmean = 0.0;
  for (double v : rho) rmean += v;
  rmean /= static_cast<double>(rho.size());
  double rn = 0.0, fn = 0.0;
  for (std::size_t i = 0; i < rho.size(); ++i) {
    const double src = fourpi * (rho[i] - rmean); // mean-free source
    const double r = lap[i] + src;
    rn += r * r;
    fn += src * src;
  }
  return std::sqrt(rn) / (std::sqrt(fn) + 1e-300);
}

double DsaHartree::energy(const std::vector<double>& rho) const {
  double e = 0.0;
  for (std::size_t i = 0; i < rho.size(); ++i) e += rho[i] * phi_[i];
  return 0.5 * e * grid_.dv();
}

} // namespace mlmd::lfd
