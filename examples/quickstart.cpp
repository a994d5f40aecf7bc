// Quickstart: propagate Kohn-Sham orbitals in one LFD domain under a
// femtosecond laser pulse and watch norm conservation, energy absorption,
// and the photoexcitation count. This is the smallest end-to-end use of
// the public API:
//
//   1. build a grid and an LfdDomain (Eq. 2 propagator),
//   2. initialize ions + orbitals,
//   3. step with a time-dependent vector potential,
//   4. read observables (density, dipole, n_exc).
//
// Run: ./quickstart [--n=12] [--norb=8] [--steps=200] [--e0=0.02]

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/lfd/domain.hpp"
#include "mlmd/maxwell/pulse.hpp"
#include "mlmd/obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"n", "norb", "steps", "e0"},
                       "usage: quickstart [--n=N] [--norb=N] [--steps=N] "
                       "[--e0=X]"))
    return 1;
  const auto n = static_cast<std::size_t>(cli.integer("n", 12));
  const auto norb = static_cast<std::size_t>(cli.integer("norb", 8));
  const int steps = static_cast<int>(cli.integer("steps", 200));

  // A small periodic box with a single attractive ion at the centre.
  grid::Grid3 g{n, n, n, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.8, 2.0}};

  lfd::LfdOptions opt;
  opt.dt_qd = 0.05; // ~1.2 attoseconds
  lfd::LfdDomain<double> dom(g, norb, opt);
  dom.initialize(ions, norb / 2);

  maxwell::Pulse pulse;
  pulse.e0 = cli.real("e0", 0.02);
  pulse.omega = 0.12;
  pulse.fwhm = 120.0;
  pulse.t0 = 0.5 * steps * opt.dt_qd;

  std::printf("# quickstart: %zu^3 grid, %zu orbitals, %d QD steps\n", n, norb,
              steps);
  std::printf("# %-10s %-12s %-12s %-12s %-10s\n", "t[as]", "A(t)", "energy[Ha]",
              "dipole_y", "norm_err");

  double a[3] = {0, 0, 0};
  const double e0_total = dom.energy(a);
  for (int s = 0; s < steps; ++s) {
    const double t = (s + 0.5) * opt.dt_qd;
    a[1] = pulse.apot(t);
    dom.qd_step(a);
    if ((s + 1) % (steps / 10) == 0) {
      auto norms = dom.wave().norms2();
      double norm_err = 0;
      for (double nn : norms) norm_err = std::max(norm_err, std::abs(nn - 1.0));
      const auto d = dom.dipole();
      std::printf("%-10.2f %-12.5f %-12.6f %-12.6f %-10.2e\n",
                  t * units::attosecond_per_au, a[1], dom.energy(a), d[1],
                  norm_err);
    }
  }
  a[1] = 0.0;
  std::printf("# absorbed energy: %.6f Ha, n_exc proxy: %.4f\n",
              dom.energy(a) - e0_total, dom.n_exc());
  // Per-kernel breakdown comes from the process-global obs registry: the
  // propagator kernels accumulate into "lfd.<kernel>.seconds" histograms.
  std::printf("# kernel time breakdown [s]:\n");
  for (const auto& h : obs::Registry::global().histograms_snapshot("lfd."))
    std::printf("#   %-22s %8.3f (%llu calls)\n", h.name.c_str(), h.sum,
                static_cast<unsigned long long>(h.count));
  return 0;
}
