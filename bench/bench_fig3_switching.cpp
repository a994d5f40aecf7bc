// Fig. 3 reproduction (the science result): light-induced switching of a
// ferroelectric skyrmion superlattice via the full MLMD pipeline, with a
// dark control. Prints Q(t) series for the pumped and dark runs and the
// switching verdict.

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/mlmd/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"lattice", "sk", "xs_steps", "e0", "n_sat"},
                       "usage: bench_fig3_switching [--lattice=N] [--sk=N] "
                       "[--xs_steps=N] [--e0=X] [--n_sat=X]"))
    return 1;

  pipeline::PipelineOptions opt;
  opt.lattice = static_cast<std::size_t>(cli.integer("lattice", 36));
  opt.superlattice = static_cast<std::size_t>(cli.integer("sk", 3));
  opt.xs_steps = static_cast<int>(cli.integer("xs_steps", 300));
  opt.pulse.e0 = cli.real("e0", 0.08);
  opt.n_sat = cli.real("n_sat", 0.5);

  Timer t;
  auto lit = pipeline::run_pipeline(opt, false);
  auto dark = pipeline::run_pipeline(opt, true);

  std::printf("# Fig 3: skyrmion-superlattice photo-switching "
              "(%zux%zu lattice, %zu^2 skyrmions), %.1f s wall\n",
              opt.lattice, opt.lattice, opt.superlattice, t.seconds());
  std::printf("# DC-MESH handoff: n_exc = %.4f -> Eq.(4) weight w = %.3f\n",
              lit.n_exc, lit.w);
  std::printf("%-8s %-12s %-12s\n", "frame", "Q_pumped", "Q_dark");
  for (std::size_t i = 0;
       i < std::min(lit.q_history.size(), dark.q_history.size()); ++i)
    std::printf("%-8zu %-12.4f %-12.4f\n", i, lit.q_history[i],
                dark.q_history[i]);
  std::printf("# Q: %.2f -> %.2f (pumped) | %.2f -> %.2f (dark)\n",
              lit.q_initial, lit.q_final, dark.q_initial, dark.q_final);
  std::printf("# switching: %s; dark control stable: %s\n",
              lit.switched ? "YES" : "NO", !dark.switched ? "YES" : "NO");
  return 0;
}
