#include "mlmd/mg/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::mg {
namespace {

inline std::size_t idx(std::size_t x, std::size_t y, std::size_t z, std::size_t ny,
                       std::size_t nz) {
  return (x * ny + y) * nz + z;
}

inline std::size_t wrap(std::ptrdiff_t i, std::size_t n) {
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(n);
  return static_cast<std::size_t>((i % m + m) % m);
}

/// Runs body(x, y) for every (x, y) column of an nx x ny x nz level on
/// the ThreadPool. Each column writes only its own z-run, and one chunk
/// covers >= 2048 grid points (>= ~10 us of stencil work), so an 8^3
/// level is a single inline chunk. `one_chunk` runs every column in one
/// inline chunk, in ascending order.
template <class Body>
void for_columns(std::size_t nx, std::size_t ny, std::size_t nz, Body&& body,
                 bool one_chunk = false) {
  const std::size_t grain =
      one_chunk ? nx * ny : std::max<std::size_t>(1, 2048 / nz);
  par::parallel_for(0, nx * ny, grain, [&](std::size_t w0, std::size_t w1) {
    for (std::size_t w = w0; w < w1; ++w) body(w / ny, w % ny);
  });
}

void subtract_mean(std::vector<double>& v) {
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double& x : v) x -= mean;
}

} // namespace

Multigrid::Multigrid(std::size_t nx, std::size_t ny, std::size_t nz, double hx,
                     double hy, double hz, MgOptions opt)
    : opt_(opt) {
  if (nx < 2 || ny < 2 || nz < 2)
    throw std::invalid_argument("Multigrid: grid too small");
  Level lv{nx, ny, nz, hx, hy, hz};
  levels_.push_back(lv);
  // Coarsen by 2 while all dims stay even and above min_dim.
  while (lv.nx % 2 == 0 && lv.ny % 2 == 0 && lv.nz % 2 == 0 &&
         lv.nx / 2 >= opt_.min_dim && lv.ny / 2 >= opt_.min_dim &&
         lv.nz / 2 >= opt_.min_dim) {
    lv = Level{lv.nx / 2, lv.ny / 2, lv.nz / 2, lv.hx * 2, lv.hy * 2, lv.hz * 2};
    levels_.push_back(lv);
  }
}

void Multigrid::smooth(const Level& lv, std::vector<double>& u,
                       const std::vector<double>& f, int sweeps) const {
  const double cx = 1.0 / (lv.hx * lv.hx);
  const double cy = 1.0 / (lv.hy * lv.hy);
  const double cz = 1.0 / (lv.hz * lv.hz);
  const double diag = 2.0 * (cx + cy + cz);
  flops::add(12ull * u.size() * static_cast<std::size_t>(sweeps));
  // With an odd extent the periodic wrap neighbour has the same colour, so
  // chunks would read cells other chunks write in the same sweep: such a
  // level sweeps as one chunk, with the threads=1 bits.
  const bool one_chunk = lv.nx % 2 != 0 || lv.ny % 2 != 0 || lv.nz % 2 != 0;

  for (int s = 0; s < sweeps; ++s) {
    // Red-black ordering keeps Gauss-Seidel data-parallel (the paper's
    // "uniform operations on nearest-neighbor mesh points", Sec. A.5).
    for (int color = 0; color < 2; ++color) {
      for_columns(lv.nx, lv.ny, lv.nz, [&](std::size_t x, std::size_t y) {
        const std::size_t xm = wrap(static_cast<std::ptrdiff_t>(x) - 1, lv.nx);
        const std::size_t xp = wrap(static_cast<std::ptrdiff_t>(x) + 1, lv.nx);
        const std::size_t ym = wrap(static_cast<std::ptrdiff_t>(y) - 1, lv.ny);
        const std::size_t yp = wrap(static_cast<std::ptrdiff_t>(y) + 1, lv.ny);
        for (std::size_t z = (x + y + static_cast<std::size_t>(color)) % 2;
             z < lv.nz; z += 2) {
          const std::size_t zm = wrap(static_cast<std::ptrdiff_t>(z) - 1, lv.nz);
          const std::size_t zp = wrap(static_cast<std::ptrdiff_t>(z) + 1, lv.nz);
          const double nb = cx * (u[idx(xm, y, z, lv.ny, lv.nz)] +
                                  u[idx(xp, y, z, lv.ny, lv.nz)]) +
                            cy * (u[idx(x, ym, z, lv.ny, lv.nz)] +
                                  u[idx(x, yp, z, lv.ny, lv.nz)]) +
                            cz * (u[idx(x, y, zm, lv.ny, lv.nz)] +
                                  u[idx(x, y, zp, lv.ny, lv.nz)]);
          u[idx(x, y, z, lv.ny, lv.nz)] =
              (f[idx(x, y, z, lv.ny, lv.nz)] + nb) / diag;
        }
      }, one_chunk);
    }
  }
}

std::vector<double> Multigrid::compute_residual(const Level& lv,
                                                const std::vector<double>& u,
                                                const std::vector<double>& f) const {
  const double cx = 1.0 / (lv.hx * lv.hx);
  const double cy = 1.0 / (lv.hy * lv.hy);
  const double cz = 1.0 / (lv.hz * lv.hz);
  const double diag = 2.0 * (cx + cy + cz);
  std::vector<double> r(u.size());
  flops::add(12ull * u.size());
  for_columns(lv.nx, lv.ny, lv.nz, [&](std::size_t x, std::size_t y) {
    const std::size_t xm = wrap(static_cast<std::ptrdiff_t>(x) - 1, lv.nx);
    const std::size_t xp = wrap(static_cast<std::ptrdiff_t>(x) + 1, lv.nx);
    const std::size_t ym = wrap(static_cast<std::ptrdiff_t>(y) - 1, lv.ny);
    const std::size_t yp = wrap(static_cast<std::ptrdiff_t>(y) + 1, lv.ny);
    for (std::size_t z = 0; z < lv.nz; ++z) {
      const std::size_t zm = wrap(static_cast<std::ptrdiff_t>(z) - 1, lv.nz);
      const std::size_t zp = wrap(static_cast<std::ptrdiff_t>(z) + 1, lv.nz);
      const double lap_u =
          cx * (u[idx(xm, y, z, lv.ny, lv.nz)] + u[idx(xp, y, z, lv.ny, lv.nz)]) +
          cy * (u[idx(x, ym, z, lv.ny, lv.nz)] + u[idx(x, yp, z, lv.ny, lv.nz)]) +
          cz * (u[idx(x, y, zm, lv.ny, lv.nz)] + u[idx(x, y, zp, lv.ny, lv.nz)]) -
          diag * u[idx(x, y, z, lv.ny, lv.nz)];
      r[idx(x, y, z, lv.ny, lv.nz)] = f[idx(x, y, z, lv.ny, lv.nz)] + lap_u;
    }
  });
  return r;
}

std::vector<double> Multigrid::restrict_full_weight(const Level& fine,
                                                    const std::vector<double>& r) const {
  const std::size_t cnx = fine.nx / 2, cny = fine.ny / 2, cnz = fine.nz / 2;
  std::vector<double> rc(cnx * cny * cnz);
  // 27-point full weighting with periodic wrap.
  static const double w[3] = {0.25, 0.5, 0.25};
  for_columns(cnx, cny, cnz, [&](std::size_t X, std::size_t Y) {
    for (std::size_t Z = 0; Z < cnz; ++Z) {
      double acc = 0.0;
      for (int dx = -1; dx <= 1; ++dx)
        for (int dy = -1; dy <= 1; ++dy)
          for (int dz = -1; dz <= 1; ++dz) {
            const std::size_t x = wrap(static_cast<std::ptrdiff_t>(2 * X) + dx, fine.nx);
            const std::size_t y = wrap(static_cast<std::ptrdiff_t>(2 * Y) + dy, fine.ny);
            const std::size_t z = wrap(static_cast<std::ptrdiff_t>(2 * Z) + dz, fine.nz);
            acc += w[dx + 1] * w[dy + 1] * w[dz + 1] *
                   r[idx(x, y, z, fine.ny, fine.nz)];
          }
      rc[idx(X, Y, Z, cny, cnz)] = acc;
    }
  });
  return rc;
}

void Multigrid::prolong_add(const Level& fine, const std::vector<double>& coarse,
                            std::vector<double>& u) const {
  const std::size_t cnx = fine.nx / 2, cny = fine.ny / 2, cnz = fine.nz / 2;
  for_columns(fine.nx, fine.ny, fine.nz, [&](std::size_t x, std::size_t y) {
    for (std::size_t z = 0; z < fine.nz; ++z) {
      // Trilinear interpolation: fine point (x,y,z) sits between coarse
      // points floor(x/2) and its +1 neighbour with weight by parity.
      const std::size_t X0 = x / 2, Y0 = y / 2, Z0 = z / 2;
      const std::size_t X1 = wrap(static_cast<std::ptrdiff_t>(X0) + (x % 2), cnx);
      const std::size_t Y1 = wrap(static_cast<std::ptrdiff_t>(Y0) + (y % 2), cny);
      const std::size_t Z1 = wrap(static_cast<std::ptrdiff_t>(Z0) + (z % 2), cnz);
      const double fx = x % 2 ? 0.5 : 0.0;
      const double fy = y % 2 ? 0.5 : 0.0;
      const double fz = z % 2 ? 0.5 : 0.0;
      double val = 0.0;
      for (int ix = 0; ix < 2; ++ix)
        for (int iy = 0; iy < 2; ++iy)
          for (int iz = 0; iz < 2; ++iz) {
            const double wgt = (ix ? fx : 1.0 - fx) * (iy ? fy : 1.0 - fy) *
                               (iz ? fz : 1.0 - fz);
            if (wgt == 0.0) continue;
            val += wgt * coarse[idx(ix ? X1 : X0, iy ? Y1 : Y0, iz ? Z1 : Z0, cny, cnz)];
          }
      u[idx(x, y, z, fine.ny, fine.nz)] += val;
    }
  });
}

void Multigrid::vcycle_level(std::size_t li, std::vector<double>& u,
                             const std::vector<double>& f) const {
  const Level& lv = levels_[li];
  if (li + 1 == levels_.size()) {
    smooth(lv, u, f, opt_.coarse_sweeps);
    subtract_mean(u); // pin the periodic null space
    return;
  }
  smooth(lv, u, f, opt_.pre_smooth);
  auto r = compute_residual(lv, u, f);
  auto rc = restrict_full_weight(lv, r);
  subtract_mean(rc);
  std::vector<double> ec(rc.size(), 0.0);
  vcycle_level(li + 1, ec, rc);
  prolong_add(lv, ec, u);
  smooth(lv, u, f, opt_.post_smooth);
}

void Multigrid::vcycle(std::vector<double>& phi, const std::vector<double>& f) const {
  vcycle_level(0, phi, f);
}

double Multigrid::residual_norm(const std::vector<double>& phi,
                                const std::vector<double>& f) const {
  auto r = compute_residual(levels_[0], phi, f);
  double s = 0.0;
  for (double x : r) s += x * x;
  return std::sqrt(s);
}

MgResult Multigrid::solve(const std::vector<double>& f_in,
                          std::vector<double>& phi) const {
  const Level& lv = levels_[0];
  const std::size_t n = lv.nx * lv.ny * lv.nz;
  if (f_in.size() != n) throw std::invalid_argument("Multigrid::solve: size mismatch");
  std::vector<double> f = f_in;
  subtract_mean(f);
  if (phi.size() != n) phi.assign(n, 0.0);

  double fnorm = 0.0;
  for (double x : f) fnorm += x * x;
  fnorm = std::sqrt(fnorm) + 1e-300;

  MgResult res;
  for (int c = 0; c < opt_.max_vcycles; ++c) {
    vcycle(phi, f);
    ++res.vcycles;
    res.rel_residual = residual_norm(phi, f) / fnorm;
    if (res.rel_residual < opt_.tol) {
      res.converged = true;
      break;
    }
  }
  subtract_mean(phi);
  return res;
}

} // namespace mlmd::mg
