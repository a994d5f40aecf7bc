#include "mlmd/qxmd/pair_potential.hpp"

#include <cmath>
#include <functional>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::qxmd {

double lj_energy_forces(const Atoms& atoms, const NeighborList& nl,
                        const LjParams& p, std::vector<double>& forces) {
  const std::size_t n = atoms.n();
  forces.assign(3 * n, 0.0);

  // Cutoff constants for the shifted-force form:
  // U_sf(r) = U(r) - U(rc) - (r - rc) U'(rc).
  auto lj_u = [&](double r) {
    const double sr6 = std::pow(p.sigma / r, 6);
    return 4.0 * p.epsilon * (sr6 * sr6 - sr6);
  };
  auto lj_du = [&](double r) {
    const double sr6 = std::pow(p.sigma / r, 6);
    return -24.0 * p.epsilon * (2.0 * sr6 * sr6 - sr6) / r;
  };
  const double u_rc = lj_u(p.rc);
  const double du_rc = lj_du(p.rc);
  const double rc2 = p.rc * p.rc;

  flops::add(30ull * nl.pair_count());
  // Each atom writes only its own force row, and the energy partials are
  // combined in chunk order, so no bit depends on the thread count. 8
  // atoms (~6 us each at ~70 neighbors) make one chunk over ~10 us.
  return par::parallel_reduce(
      0, n, 8, 0.0,
      [&](std::size_t i0, std::size_t i1) {
        double energy = 0.0;
        for (std::size_t i = i0; i < i1; ++i) {
          const double* ri = atoms.pos(i);
          double fi[3] = {0, 0, 0};
          for (std::uint32_t j : nl.neighbors(i)) {
            const auto d = atoms.box.mic(ri, atoms.pos(j));
            const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if (r2 >= rc2 || r2 <= 0.0) continue;
            const double r = std::sqrt(r2);
            // Half of the pair energy per directed pair (each pair counted twice).
            energy += 0.5 * (lj_u(r) - u_rc - (r - p.rc) * du_rc);
            const double fmag = -(lj_du(r) - du_rc) / r; // F = -dU/dr * rhat
            fi[0] += fmag * d[0];
            fi[1] += fmag * d[1];
            fi[2] += fmag * d[2];
          }
          forces[3 * i + 0] += fi[0];
          forces[3 * i + 1] += fi[1];
          forces[3 * i + 2] += fi[2];
        }
        return energy;
      },
      std::plus<>());
}

} // namespace mlmd::qxmd
