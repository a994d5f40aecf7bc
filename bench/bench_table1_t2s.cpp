// Table I reproduction: Maxwell-Ehrenfest time-to-solution ladder.
//
// The paper compares T2S = seconds / (electron * QD step) across Qb@ll,
// PWDFT, SALMON and DC-MESH. The structural claim is that conventional
// (non-divide-and-conquer) real-time TDDFT pays a per-electron cost that
// GROWS with system size (global orthogonalization / dense global
// operations), while DC-MESH's per-electron cost is CONSTANT: the DC
// aggregation rule (Sec. VII.B) makes T2S size-independent by
// construction, so extra electrons are bought with extra domains.
//
// We measure both codes at several electron counts on this host, print
// measured T2S, then extrapolate the measured DC granularity cost to the
// paper's 15.36M-electron / 120,000-rank configuration using the
// calibrated machine model (DESIGN.md substitution: compute measured,
// network modeled).

#include <cstdio>
#include <vector>

#include "mlmd/common/cli.hpp"
#include "mlmd/mesh/baseline.hpp"
#include "mlmd/perf/machine.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"steps"},
                       "usage: bench_table1_t2s [--steps=N]"))
    return 1;
  const int steps = static_cast<int>(cli.integer("steps", 10));

  std::printf("# Table I: ME-NAQMD time-to-solution [sec/(electron*step)]\n");
  std::printf("%-28s %-11s %-14s %-14s\n", "Code", "electrons", "sec/step",
              "T2S");

  // Conventional global code at growing size: per-electron cost rises.
  struct Cfg {
    std::size_t n, norb;
  };
  const std::vector<Cfg> sizes = {{10, 8}, {12, 16}, {16, 32}, {20, 64}};
  std::vector<double> base_t2s;
  for (const auto& c : sizes) {
    auto r = mesh::run_global_baseline(c.n, c.norb, steps);
    base_t2s.push_back(r.t2s_per_electron);
    std::printf("%-28s %-11zu %-14.4e %-14.4e\n", "Global baseline (non-DC)",
                r.electrons, r.seconds_per_qd_step, r.t2s_per_electron);
  }

  // DC-MESH: one domain measured; total T2S is the same at any domain
  // count because domains add electrons and compute in equal proportion.
  std::vector<double> dc_t2s;
  for (const auto& c : sizes) {
    auto r = mesh::run_dc_domain(c.n, c.norb, steps);
    dc_t2s.push_back(r.t2s_per_electron);
    std::printf("%-28s %-11zu %-14.4e %-14.4e\n", "DC-MESH (per domain)",
                r.electrons, r.seconds_per_qd_step, r.t2s_per_electron);
  }

  const double growth = base_t2s.back() / base_t2s.front();
  const double dc_growth = dc_t2s.back() / dc_t2s.front();
  std::printf("# per-electron cost growth, smallest -> largest system: "
              "baseline %.2fx, DC-MESH %.2fx\n", growth, dc_growth);
  std::printf("# speedup at largest measured size: %.1fx\n",
              base_t2s.back() / dc_t2s.back());

  // Machine-model extrapolation to the paper configuration.
  perf::Network net;
  perf::DcMeshCompute comp;
  {
    std::vector<double> nelec, secs;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      nelec.push_back(2.0 * static_cast<double>(sizes[i].norb));
      secs.push_back(dc_t2s[i] * 2.0 * static_cast<double>(sizes[i].norb));
    }
    comp = perf::DcMeshCompute::fit(nelec, secs);
  }
  const long p_paper = 120000;
  const long n_paper = 15360000;
  const double n_per_rank = static_cast<double>(n_paper) / p_paper;
  const double t_step = comp.seconds(n_per_rank) +
                        net.allgather(p_paper, 8) + net.gather(p_paper, 8);
  std::printf("# model-extrapolated paper config (%ld electrons, %ld ranks): "
              "%.3e sec/step -> T2S %.3e s/electron\n",
              n_paper, p_paper, t_step, t_step / n_paper);
  std::printf("# paper reference: Qb@ll 8.96e-4, PWDFT 8.49e-4, SALMON "
              "1.69e-5, this work 1.11e-7 (152x vs SALMON)\n");
  return 0;
}
