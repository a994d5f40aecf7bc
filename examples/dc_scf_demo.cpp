// Divide-and-conquer DFT demo: the global-local SCF loop of DC-DFT
// (paper Sec. V.A.1, Fig. 2a). A global grid is split into overlapping
// core+buffer domains; local orbitals relax against the global KS
// potential assembled from all domains' core densities via multigrid.
//
// Run: ./dc_scf_demo [--n=16] [--domains=2] [--buffer=2]

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/scf/dc_scf.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"n", "domains", "buffer", "mix", "outer",
                        "local_iters", "tol"},
                       "usage: dc_scf_demo [--n=N] [--domains=N] [--buffer=N] "
                       "[--mix=X] [--outer=N] [--local_iters=N] [--tol=X]"))
    return 1;
  const auto n = static_cast<std::size_t>(cli.integer("n", 16));
  const int d = static_cast<int>(cli.integer("domains", 2));
  const auto buffer = static_cast<std::size_t>(cli.integer("buffer", 2));

  grid::Grid3 g{n, n, n, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, d, d, d, buffer);

  // One ion per domain core centre.
  std::vector<lfd::Ion> ions;
  for (int a = 0; a < dec.ndomains(); ++a) {
    const auto& dom = dec.domain(a);
    ions.push_back({(static_cast<double>(dom.core0[0]) + 0.5 * dom.coreN[0]) * g.hx,
                    (static_cast<double>(dom.core0[1]) + 0.5 * dom.coreN[1]) * g.hy,
                    (static_cast<double>(dom.core0[2]) + 0.5 * dom.coreN[2]) * g.hz,
                    2.5, 1.5, 2.0});
  }

  scf::ScfOptions opt;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mix = cli.real("mix", 0.35);
  opt.max_outer = static_cast<int>(cli.integer("outer", 60));
  opt.local_iters = static_cast<int>(cli.integer("local_iters", 30));
  opt.tol = cli.real("tol", 3e-3); // demo-scale target; tighten via --tol

  std::printf("# DC-SCF: %zu^3 grid, %d domains, buffer %zu, overlap factor %.2f\n",
              n, dec.ndomains(), buffer, dec.overlap_factor());
  scf::DcScf scf(dec, ions, opt);
  auto res = scf.run();
  std::printf("# converged: %s in %d outer iterations (residual %.2e)\n",
              res.converged ? "yes" : "no", res.outer_iters, res.density_residual);
  std::printf("# band-energy sum: %.6f Ha\n", res.total_energy);
  std::printf("# first domain bands [Ha]:");
  for (std::size_t s = 0; s < opt.norb; ++s)
    std::printf(" %.4f", res.band_energies[s]);
  std::printf("\n");

  // Electron count check: integral of the converged density. Each domain
  // contributes only its orbitals' core-resident weight (buffer tails are
  // owned by the neighbouring domains in DC-DFT), so this is bounded by,
  // and approaches from below, 2 * nfilled * ndomains.
  double nel = 0.0;
  for (double v : scf.global_density()) nel += v;
  nel *= g.dv();
  std::printf("# integrated density: %.4f electrons (core-resident, bound %.1f)\n",
              nel, 2.0 * static_cast<double>(opt.nfilled) * dec.ndomains());
  return 0;
}
