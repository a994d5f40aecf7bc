#include "mlmd/lfd/vloc.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::lfd {
namespace {

/// Minimum-image displacement component.
inline double mic(double d, double l) { return d - l * std::round(d / l); }

} // namespace

std::vector<double> ionic_potential(const grid::Grid3& g,
                                    const std::vector<Ion>& ions) {
  std::vector<double> v(g.size(), 0.0);
  flops::add(14ull * g.size() * ions.size());
  // Each flattened (x, y) column writes its own z-run of v; the exp-heavy
  // inner loop makes one column ample work per claim.
  par::parallel_for(0, g.nx * g.ny, 1, [&](std::size_t w0, std::size_t w1) {
    for (std::size_t w = w0; w < w1; ++w) {
      const std::size_t x = w / g.ny;
      const std::size_t y = w % g.ny;
      for (std::size_t z = 0; z < g.nz; ++z) {
        double acc = 0.0;
        const double px = x * g.hx, py = y * g.hy, pz = z * g.hz;
        for (const Ion& ion : ions) {
          const double dx = mic(px - ion.x, g.lx());
          const double dy = mic(py - ion.y, g.ly());
          const double dz = mic(pz - ion.z, g.lz());
          const double r2 = dx * dx + dy * dy + dz * dz;
          acc -= ion.v0 * std::exp(-r2 / (2.0 * ion.sigma * ion.sigma));
        }
        v[g.index(x, y, z)] = acc;
      }
    }
  });
  return v;
}

void add_xc_potential(const std::vector<double>& rho, std::vector<double>& v) {
  if (rho.size() != v.size())
    throw std::invalid_argument("add_xc_potential: size mismatch");
  const double c = std::pow(3.0 / std::numbers::pi, 1.0 / 3.0);
  flops::add(4ull * rho.size());
  for (std::size_t i = 0; i < rho.size(); ++i)
    v[i] -= c * std::cbrt(std::max(rho[i], 0.0));
}

template <class Real>
void vloc_prop(SoAWave<Real>& w, const std::vector<double>& v, double dt) {
  if (v.size() != w.grid.size())
    throw std::invalid_argument("vloc_prop: potential size mismatch");
  flops::add((8ull * w.norb + 20ull) * w.grid.size());
  auto* psi = w.psi.data();
  const std::size_t norb = w.norb;
  // Batched orbital update through the dispatched phase kernel
  // (mlmd::simd, bit-identical across targets): each grid row (norb
  // orbitals) is disjoint.
  const simd::PhaseRowFn<Real> phase = simd::phase_fn<Real>();
  par::parallel_for(0, v.size(), 256, [&](std::size_t g0, std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      const double ang = -dt * v[g];
      const Real pr = static_cast<Real>(std::cos(ang));
      const Real pi = static_cast<Real>(std::sin(ang));
      phase(psi + g * norb, pr, pi, norb);
    }
  });
}

template <class Real>
double potential_energy(const SoAWave<Real>& w, const std::vector<double>& f,
                        const std::vector<double>& v) {
  if (v.size() != w.grid.size() || f.size() != w.norb)
    throw std::invalid_argument("potential_energy: size mismatch");
  double e = 0.0;
  for (std::size_t g = 0; g < v.size(); ++g) {
    double dens = 0.0;
    for (std::size_t s = 0; s < w.norb; ++s)
      dens += f[s] * std::norm(std::complex<double>(w.at(g, s)));
    e += v[g] * dens;
  }
  return e * w.grid.dv();
}

std::array<double, 3> ion_force(const grid::Grid3& g, const std::vector<double>& rho,
                                const Ion& ion) {
  // V_ion contribution of this ion at r: -v0 exp(-|r-R|^2/(2 s^2)).
  // dV/dR = -v0 exp(...) * (r - R)/s^2 ; F = -∫ rho dV/dR dr.
  std::array<double, 3> fr{0.0, 0.0, 0.0};
  const double s2 = ion.sigma * ion.sigma;
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z) {
        const double dx = mic(x * g.hx - ion.x, g.lx());
        const double dy = mic(y * g.hy - ion.y, g.ly());
        const double dz = mic(z * g.hz - ion.z, g.lz());
        const double r2 = dx * dx + dy * dy + dz * dz;
        const double w = rho[g.index(x, y, z)] * ion.v0 * std::exp(-r2 / (2.0 * s2)) / s2;
        fr[0] += w * dx;
        fr[1] += w * dy;
        fr[2] += w * dz;
      }
  const double dv = g.dv();
  for (double& c : fr) c *= dv;
  return fr;
}

template void vloc_prop<float>(SoAWave<float>&, const std::vector<double>&, double);
template void vloc_prop<double>(SoAWave<double>&, const std::vector<double>&, double);
template double potential_energy<float>(const SoAWave<float>&,
                                        const std::vector<double>&,
                                        const std::vector<double>&);
template double potential_energy<double>(const SoAWave<double>&,
                                         const std::vector<double>&,
                                         const std::vector<double>&);

} // namespace mlmd::lfd
