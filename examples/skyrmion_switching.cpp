// Photo-switching of a ferroelectric skyrmion superlattice (paper
// Fig. 3): the full MLMD pipeline at laptop scale.
//
//   GS-NNQMD prepares a relaxed skyrmion superlattice; DC-MESH simulates
//   the femtosecond pulse and reports n_exc; XS-NNQMD propagates the
//   superlattice with Eq. (4) force mixing. A dark control run shows the
//   texture is stable without light; the pumped run switches it.
//
// Run: ./skyrmion_switching [--lattice=48] [--sk=3] [--xs_steps=400]

#include <cmath>
#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/mlmd/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"lattice", "sk", "xs_steps", "e0", "n_sat"},
                       "usage: skyrmion_switching [--lattice=N] [--sk=N] "
                       "[--xs_steps=N] [--e0=X] [--n_sat=X]"))
    return 1;

  pipeline::PipelineOptions opt;
  opt.lattice = static_cast<std::size_t>(cli.integer("lattice", 48));
  opt.superlattice = static_cast<std::size_t>(cli.integer("sk", 3));
  opt.xs_steps = static_cast<int>(cli.integer("xs_steps", 400));
  opt.pulse.e0 = cli.real("e0", 0.08);
  opt.n_sat = cli.real("n_sat", 0.5);

  std::printf("# Fig. 3 reproduction: %zux%zu lattice, %zux%zu skyrmion "
              "superlattice\n",
              opt.lattice, opt.lattice, opt.superlattice, opt.superlattice);

  auto lit = pipeline::run_pipeline(opt, /*dark=*/false);
  auto dark = pipeline::run_pipeline(opt, /*dark=*/true);

  std::printf("# pumped run: n_exc = %.4f, w = %.3f\n", lit.n_exc, lit.w);
  std::printf("# %-8s %-12s %-12s\n", "frame", "Q_pumped", "Q_dark");
  const std::size_t frames = std::min(lit.q_history.size(), dark.q_history.size());
  for (std::size_t i = 0; i < frames; ++i)
    std::printf("%-8zu %-12.4f %-12.4f\n", i, lit.q_history[i], dark.q_history[i]);

  std::printf("# initial Q = %.3f\n", lit.q_initial);
  std::printf("# final   Q = %.3f (pumped)  vs  %.3f (dark)\n", lit.q_final,
              dark.q_final);
  std::printf("# topological switching: %s (dark control %s)\n",
              lit.switched ? "YES" : "no",
              dark.switched ? "ALSO SWITCHED (bad)" : "stable");
  return lit.switched && !dark.switched ? 0 : 1;
}
