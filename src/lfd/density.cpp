#include "mlmd/lfd/density.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::lfd {

template <class Real>
std::vector<double> density(const SoAWave<Real>& w, const std::vector<double>& f) {
  if (f.size() != w.norb) throw std::invalid_argument("density: occupation size");
  std::vector<double> rho(w.grid.size(), 0.0);
  flops::add(3ull * w.grid.size() * w.norb);
  // One chunk covers >= 8192 (point, orbital) pairs (>= ~10 us of work),
  // so an 8^3 grid with <= 16 orbitals runs as one inline chunk.
  const std::size_t grain =
      std::max<std::size_t>(1, 8192 / std::max<std::size_t>(w.norb, 1));
  par::parallel_for(0, rho.size(), grain, [&](std::size_t g0, std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      double acc = 0.0;
      const auto* row = w.psi.row(g);
      for (std::size_t s = 0; s < w.norb; ++s) {
        const double re = row[s].real(), im = row[s].imag();
        acc += f[s] * (re * re + im * im);
      }
      rho[g] = acc;
    }
  });
  return rho;
}

template <class Real>
std::array<double, 3> macroscopic_current(const SoAWave<Real>& w,
                                          const std::vector<double>& f,
                                          const double a[3]) {
  if (f.size() != w.norb)
    throw std::invalid_argument("macroscopic_current: occupation size");
  const grid::Grid3& g = w.grid;
  std::array<double, 3> j{0.0, 0.0, 0.0};
  flops::add(20ull * g.size() * w.norb);

  // Paramagnetic part via central-difference bonds (matches propagator
  // stencil): Im(psi^*(r) [psi(r+h) - psi(r-h)] / 2h), Peierls-consistent.
  const std::size_t extents[3] = {g.nx, g.ny, g.nz};
  const double hs[3] = {g.hx, g.hy, g.hz};

  // Deterministic reduction over x-planes: the per-chunk partials are
  // combined in chunk order, so the bits do not depend on the thread
  // count. One chunk covers >= 8192 (point, orbital) pairs.
  const std::size_t grain = std::max<std::size_t>(
      1, 8192 / (g.ny * g.nz * std::max<std::size_t>(w.norb, 1)));
  for (int axis = 0; axis < 3; ++axis) {
    const double theta = a[axis] * hs[axis] / units::c_light;
    const std::complex<double> ph(std::cos(theta), -std::sin(theta));
    const auto planes = [&](std::size_t x0, std::size_t x1) {
      double acc = 0.0;
      for (std::size_t x = x0; x < x1; ++x)
        for (std::size_t y = 0; y < g.ny; ++y)
          for (std::size_t z = 0; z < g.nz; ++z) {
            const std::size_t c[3] = {x, y, z};
            const std::size_t gp = g.index(x, y, z);
            std::size_t cc[3] = {x, y, z};
            cc[axis] = c[axis] + 1 == extents[axis] ? 0 : c[axis] + 1;
            const std::size_t gq = g.index(cc[0], cc[1], cc[2]);
            for (std::size_t s = 0; s < w.norb; ++s) {
              const std::complex<double> u(w.at(gp, s));
              const std::complex<double> v(w.at(gq, s));
              acc += f[s] * std::imag(std::conj(u) * ph * v) / hs[axis];
            }
          }
      return acc;
    };
    const double acc = par::parallel_reduce(0, g.nx, grain, 0.0, planes, std::plus<>());
    j[static_cast<std::size_t>(axis)] = acc * g.dv() / g.volume();
  }
  return j;
}

template <class Real>
std::array<double, 3> dipole_moment(const SoAWave<Real>& w,
                                    const std::vector<double>& f) {
  const grid::Grid3& g = w.grid;
  std::array<double, 3> d{0.0, 0.0, 0.0};
  const double cx = 0.5 * g.lx(), cy = 0.5 * g.ly(), cz = 0.5 * g.lz();
  auto mic = [](double x, double l) { return x - l * std::round(x / l); };
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z) {
        double dens = 0.0;
        const auto* row = w.psi.row(g.index(x, y, z));
        for (std::size_t s = 0; s < w.norb; ++s)
          dens += f[s] * std::norm(std::complex<double>(row[s]));
        d[0] += dens * mic(x * g.hx - cx, g.lx());
        d[1] += dens * mic(y * g.hy - cy, g.ly());
        d[2] += dens * mic(z * g.hz - cz, g.lz());
      }
  const double dv = g.dv();
  for (double& c : d) c *= dv;
  return d;
}

double excitation_number(const std::vector<double>& f0, const std::vector<double>& f) {
  if (f0.size() != f.size())
    throw std::invalid_argument("excitation_number: size mismatch");
  double n = 0.0;
  for (std::size_t s = 0; s < f.size(); ++s) n += std::max(f0[s] - f[s], 0.0);
  return n;
}

template std::vector<double> density<float>(const SoAWave<float>&,
                                            const std::vector<double>&);
template std::vector<double> density<double>(const SoAWave<double>&,
                                             const std::vector<double>&);
template std::array<double, 3> macroscopic_current<float>(const SoAWave<float>&,
                                                          const std::vector<double>&,
                                                          const double[3]);
template std::array<double, 3> macroscopic_current<double>(const SoAWave<double>&,
                                                           const std::vector<double>&,
                                                           const double[3]);
template std::array<double, 3> dipole_moment<float>(const SoAWave<float>&,
                                                    const std::vector<double>&);
template std::array<double, 3> dipole_moment<double>(const SoAWave<double>&,
                                                     const std::vector<double>&);

} // namespace mlmd::lfd
