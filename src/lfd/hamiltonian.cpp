#include "mlmd/lfd/hamiltonian.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::lfd {

template <class Real>
la::Matrix<std::complex<Real>> apply_hloc(const SoAWave<Real>& w,
                                          const std::vector<double>& vloc,
                                          const double a[3]) {
  if (vloc.size() != w.grid.size())
    throw std::invalid_argument("apply_hloc: potential size mismatch");
  const grid::Grid3& g = w.grid;
  la::Matrix<std::complex<Real>> h(g.size(), w.norb);
  flops::add((40ull * w.norb) * g.size());

  const double hs[3] = {g.hx, g.hy, g.hz};
  const double diag = 1.0 / (g.hx * g.hx) + 1.0 / (g.hy * g.hy) + 1.0 / (g.hz * g.hz);
  const std::size_t extents[3] = {g.nx, g.ny, g.nz};

  // Hopping phases per axis (Peierls, velocity gauge).
  std::complex<Real> tph[3], tph_conj[3];
  for (int axis = 0; axis < 3; ++axis) {
    const double t_hop = -0.5 / (hs[axis] * hs[axis]);
    const double theta = a[axis] * hs[axis] / units::c_light;
    tph[axis] = std::complex<Real>(static_cast<Real>(t_hop * std::cos(theta)),
                                   static_cast<Real>(-t_hop * std::sin(theta)));
    tph_conj[axis] = std::conj(tph[axis]);
  }

  // Flattened (x, y) columns, each writing its own rows of h; one chunk
  // covers >= 8192 (point, orbital) pairs (>= ~10 us of work).
  const std::size_t grain =
      std::max<std::size_t>(1, 8192 / (g.nz * std::max<std::size_t>(w.norb, 1)));
  par::parallel_for(0, g.nx * g.ny, grain, [&](std::size_t w0, std::size_t w1) {
    for (std::size_t col = w0; col < w1; ++col) {
      const std::size_t x = col / g.ny;
      const std::size_t y = col % g.ny;
      for (std::size_t z = 0; z < g.nz; ++z) {
        const std::size_t gp = g.index(x, y, z);
        const Real vd = static_cast<Real>(vloc[gp] + diag);
        const std::size_t c[3] = {x, y, z};
        auto* out = h.row(gp);
        const auto* self = w.psi.row(gp);
        for (std::size_t s = 0; s < w.norb; ++s) out[s] = vd * self[s];
        for (int axis = 0; axis < 3; ++axis) {
          std::size_t cp[3] = {x, y, z};
          cp[axis] = c[axis] + 1 == extents[axis] ? 0 : c[axis] + 1;
          std::size_t cm[3] = {x, y, z};
          cm[axis] = c[axis] == 0 ? extents[axis] - 1 : c[axis] - 1;
          const auto* plus = w.psi.row(g.index(cp[0], cp[1], cp[2]));
          const auto* minus = w.psi.row(g.index(cm[0], cm[1], cm[2]));
          // <r|T|psi>: hop to r+h with phase tph, to r-h with conj phase.
          for (std::size_t s = 0; s < w.norb; ++s)
            out[s] += tph[axis] * plus[s] + tph_conj[axis] * minus[s];
        }
      }
    }
  });
  return h;
}

template <class Real>
la::Matrix<std::complex<double>> orbital_hamiltonian(const SoAWave<Real>& w,
                                                     const std::vector<double>& vloc,
                                                     const double a[3]) {
  auto hpsi = apply_hloc(w, vloc, a);
  la::Matrix<std::complex<Real>> hm(w.norb, w.norb);
  la::gemm(la::Trans::kC, la::Trans::kN,
           std::complex<Real>(static_cast<Real>(w.grid.dv()), Real(0)), w.psi, hpsi,
           std::complex<Real>{}, hm);
  la::Matrix<std::complex<double>> out(w.norb, w.norb);
  for (std::size_t i = 0; i < hm.size(); ++i)
    out.data()[i] = std::complex<double>(hm.data()[i].real(), hm.data()[i].imag());
  return out;
}

template <class Real>
double total_energy(const SoAWave<Real>& w, const std::vector<double>& f,
                    const std::vector<double>& vloc, const double a[3]) {
  if (f.size() != w.norb) throw std::invalid_argument("total_energy: occupations");
  auto hpsi = apply_hloc(w, vloc, a);
  double e = 0.0;
  for (std::size_t g = 0; g < w.grid.size(); ++g) {
    const auto* prow = w.psi.row(g);
    const auto* hrow = hpsi.row(g);
    for (std::size_t s = 0; s < w.norb; ++s)
      e += f[s] * std::real(std::conj(std::complex<double>(prow[s])) *
                            std::complex<double>(hrow[s]));
  }
  return e * w.grid.dv();
}

template la::Matrix<std::complex<float>> apply_hloc<float>(const SoAWave<float>&,
                                                           const std::vector<double>&,
                                                           const double[3]);
template la::Matrix<std::complex<double>> apply_hloc<double>(const SoAWave<double>&,
                                                             const std::vector<double>&,
                                                             const double[3]);
template la::Matrix<std::complex<double>> orbital_hamiltonian<float>(
    const SoAWave<float>&, const std::vector<double>&, const double[3]);
template la::Matrix<std::complex<double>> orbital_hamiltonian<double>(
    const SoAWave<double>&, const std::vector<double>&, const double[3]);
template double total_energy<float>(const SoAWave<float>&, const std::vector<double>&,
                                    const std::vector<double>&, const double[3]);
template double total_energy<double>(const SoAWave<double>&, const std::vector<double>&,
                                     const std::vector<double>&, const double[3]);

} // namespace mlmd::lfd
