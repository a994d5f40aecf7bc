#include "mlmd/nnq/descriptor.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::nnq {

RadialBasis RadialBasis::make(std::size_t k, double r0, double rc, double eta) {
  RadialBasis b;
  b.rc = rc;
  b.eta = eta;
  b.mu.resize(k);
  for (std::size_t i = 0; i < k; ++i)
    b.mu[i] = r0 + (rc - r0) * static_cast<double>(i) / static_cast<double>(k > 1 ? k - 1 : 1);
  return b;
}

double RadialBasis::fc(double r) const {
  if (r >= rc) return 0.0;
  return 0.5 * (std::cos(std::numbers::pi * r / rc) + 1.0);
}

double RadialBasis::dfc(double r) const {
  if (r >= rc) return 0.0;
  return -0.5 * std::numbers::pi / rc * std::sin(std::numbers::pi * r / rc);
}

void RadialBasis::eval(double r, std::vector<double>& g, std::vector<double>& dg) const {
  g.assign(mu.size(), 0.0);
  dg.assign(mu.size(), 0.0);
  const double f = fc(r);
  const double df = dfc(r);
  if (f == 0.0) return;
  const double inv_eta2 = 1.0 / (eta * eta);
  for (std::size_t k = 0; k < mu.size(); ++k) {
    const double d = r - mu[k];
    const double e = std::exp(-d * d * inv_eta2);
    g[k] = e * f;
    dg[k] = e * (df - 2.0 * d * inv_eta2 * f);
  }
}

std::vector<double> atom_descriptors(const qxmd::Atoms& atoms,
                                     const qxmd::NeighborList& nl,
                                     const RadialBasis& basis, int ntypes) {
  if (ntypes < 1) throw std::invalid_argument("atom_descriptors: ntypes >= 1");
  const std::size_t n = atoms.n();
  const std::size_t nb = basis.size();
  const std::size_t width = nb * static_cast<std::size_t>(ntypes);
  std::vector<double> out(n * width, 0.0);
  flops::add(8ull * nb * nl.pair_count());
  // Each atom writes only its own descriptor row; 8 atoms (~3 us each at
  // ~16 neighbors) make one chunk over ~10 us.
  par::parallel_for(0, n, 8, [&](std::size_t i0, std::size_t i1) {
    std::vector<double> g, dg;
    for (std::size_t i = i0; i < i1; ++i) {
      for (auto j : nl.neighbors(i)) {
        const auto d = atoms.box.mic(atoms.pos(i), atoms.pos(j));
        const double r = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        if (r <= 0 || r >= basis.rc) continue;
        basis.eval(r, g, dg);
        const std::size_t channel =
            static_cast<std::size_t>(atoms.type[j] % ntypes) * nb;
        for (std::size_t k = 0; k < nb; ++k) out[i * width + channel + k] += g[k];
      }
    }
  });
  return out;
}

void lattice_features(const ferro::FerroLattice& lat, std::size_t x, std::size_t y,
                      std::vector<double>& out) {
  out.resize(kLatticeFeatures);
  const std::size_t xp = (x + 1) % lat.lx();
  const std::size_t xm = (x + lat.lx() - 1) % lat.lx();
  const std::size_t yp = (y + 1) % lat.ly();
  const std::size_t ym = (y + lat.ly() - 1) % lat.ly();
  const auto& ui = lat.u(x, y);
  const auto& a = lat.u(xp, y);
  const auto& b = lat.u(xm, y);
  const auto& c = lat.u(x, yp);
  const auto& d = lat.u(x, ym);
  std::size_t o = 0;
  for (int k = 0; k < 3; ++k) out[o++] = ui[k];
  out[o++] = ui[0] * ui[0] + ui[1] * ui[1] + ui[2] * ui[2];
  for (int k = 0; k < 3; ++k) out[o++] = a[k];
  for (int k = 0; k < 3; ++k) out[o++] = b[k];
  for (int k = 0; k < 3; ++k) out[o++] = c[k];
  for (int k = 0; k < 3; ++k) out[o++] = d[k];
}

} // namespace mlmd::nnq
