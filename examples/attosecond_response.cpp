// Attosecond light-matter response: drive one DC-MESH domain (coupled
// electron QD + ion MD + surface hopping) with a femtosecond pump pulse
// and record the optical response — macroscopic current, occupation
// redistribution, and the photoexcited-electron count that the multiscale
// pipeline hands to XS-NNQMD (paper Fig. 2b).
//
// Run: ./attosecond_response [--md_steps=6] [--e0=0.05] [--omega=0.12]

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/mesh/recorder.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"md_steps", "e0", "omega", "csv"},
                       "usage: attosecond_response [--md_steps=N] [--e0=X] "
                       "[--omega=X] [--csv=path]"))
    return 1;
  const int md_steps = static_cast<int>(cli.integer("md_steps", 6));

  grid::Grid3 g{10, 10, 10, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0},
      {0.25 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 1.2, 1.2, 2.0}};

  mesh::MeshOptions opt;
  opt.lfd.dt_qd = 0.06;
  opt.nqd_per_md = 40;
  opt.sh.kt = 0.01;

  mesh::DcMeshDomain dom(g, /*norb=*/6, /*nfilled=*/3, ions, opt);

  maxwell::Pulse pulse;
  pulse.e0 = cli.real("e0", 0.05);
  pulse.omega = cli.real("omega", 0.12);
  pulse.fwhm = 80.0;
  pulse.t0 = 0.5 * md_steps * dom.md_dt();

  std::printf("# attosecond response: %d MD steps x %d QD steps\n", md_steps,
              opt.nqd_per_md);
  std::printf("# %-9s %-11s %-11s %-11s %-12s %-12s\n", "t[fs]", "n_exc", "J_y",
              "|delta_f|", "dv->lfd[B]", "df->qxmd[B]");

  mesh::Recorder recorder;
  for (int s = 0; s < md_steps; ++s) {
    const auto stats = dom.md_step(&pulse);
    recorder.record(dom, stats, pulse.apot(dom.time()));
    const auto j = dom.current(pulse.apot(dom.time()));
    std::printf("%-9.3f %-11.5f %-11.3e %-11.4f %-12zu %-12zu\n",
                dom.time() * units::femtosecond_per_au, stats.n_exc, j[1],
                stats.delta_f_norm, stats.bytes_qxmd_to_lfd,
                stats.bytes_lfd_to_qxmd);
  }
  if (cli.has("csv")) {
    recorder.write_csv(cli.str("csv"));
    std::printf("# observables written to %s\n", cli.str("csv").c_str());
  }

  std::printf("# occupations after pulse:");
  for (double f : dom.lfd().occupations()) std::printf(" %.3f", f);
  std::printf("\n# shadow-dynamics traffic vs GPU-resident wavefunctions: "
              "%zu B moved vs %zu B resident per MD step\n",
              dom.md_dt() > 0 ? 2 * g.size() * sizeof(double) : 0,
              dom.lfd().wave().psi.size() * sizeof(std::complex<float>));
  return 0;
}
