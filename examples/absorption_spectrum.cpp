// Optical absorption spectrum of one LFD domain via the standard
// real-time-TDDFT delta-kick protocol: boost every orbital with a tiny
// momentum kick exp(i k y), record the induced dipole d_y(t) during
// field-free propagation, and Fourier-transform to the dipole strength
// function. The peaks are the domain's electronic excitation energies —
// the observable the paper's Maxwell+Ehrenfest machinery produces for
// comparison against pump-probe experiments.
//
// Run: ./absorption_spectrum [--n=10] [--norb=6] [--steps=2000]

#include <cmath>
#include <cstdio>

#include "mlmd/analysis/spectrum.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/lfd/domain.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"n", "norb", "steps", "kick"},
                       "usage: absorption_spectrum [--n=N] [--norb=N] "
                       "[--steps=N] [--kick=X]"))
    return 1;
  const auto n = static_cast<std::size_t>(cli.integer("n", 10));
  const auto norb = static_cast<std::size_t>(cli.integer("norb", 6));
  const int steps = static_cast<int>(cli.integer("steps", 2000));
  const double kick = cli.real("kick", 1e-3);

  grid::Grid3 g{n, n, n, 0.7, 0.7, 0.7};
  lfd::LfdOptions opt;
  opt.dt_qd = 0.08;
  opt.nlp_every = 0; // pure local dynamics for a clean spectrum
  lfd::LfdDomain<double> dom(g, norb, opt);
  dom.initialize({{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.6, 2.0}},
                 norb / 2);

  // Delta kick along y: psi *= exp(i * kick * y).
  auto& w = dom.wave();
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z) {
        const std::complex<double> ph(std::cos(kick * y * g.hy),
                                      std::sin(kick * y * g.hy));
        for (std::size_t s = 0; s < norb; ++s)
          w.at(g.index(x, y, z), s) *= ph;
      }

  std::printf("# delta-kick absorption: %zu^3 grid, %zu orbitals, %d steps, "
              "kick %.1e\n", n, norb, steps, kick);
  std::vector<double> dipole;
  const double a0[3] = {0, 0, 0};
  for (int s = 0; s < steps; ++s) {
    dom.qd_step(a0);
    dipole.push_back(dom.dipole()[1]);
  }

  auto spec = analysis::absorption_spectrum(dipole, opt.dt_qd);
  std::printf("# %-12s %-12s\n", "omega[eV]", "strength");
  for (std::size_t k = 0; k < spec.omega.size(); ++k) {
    const double ev = spec.omega[k] * units::ev_per_hartree;
    if (ev > 40.0) break;
    if (k % 4 == 0) std::printf("%-12.3f %-12.5e\n", ev, spec.power[k]);
  }
  std::printf("# dominant transition: %.3f eV\n",
              analysis::dominant_frequency(spec) * units::ev_per_hartree);
  return 0;
}
