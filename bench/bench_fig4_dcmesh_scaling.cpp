// Fig. 4 reproduction: DC-MESH weak scaling (a) at 32 and 128 electrons
// per rank for P = 6,144 ... 120,000, and strong scaling (b) for a
// 12,582,912-electron system over P = 24,576 ... 98,304.
//
// Compute coefficients are FIT FROM MEASURED single-domain DC-MESH runs
// on this host (several granularities); the network is the calibrated
// Dragonfly-like alpha-beta model (DESIGN.md substitution). Also checks
// the paper's aggregate-EFLOP/s accounting rule and runs a real SimComm
// multi-rank mini-version to validate the communication pattern — over
// the in-process backend or, with --transport=shm, over real forked
// processes and shared memory (DESIGN.md Sec. 11), which makes the
// mini-run's communication points *measured* rather than modeled.
//
// --json=<path> emits benchjson schema v3 with one record per SimComm
// rank of the mini-run (comm_bytes = that rank's exact contributed
// bytes); the per-rank records must be identical between --transport
// values for the same configuration (trace_check --compare-comm).
// --model=0 skips the calibration and analytic sweeps (CI smoke runs).
//
// Expected shape: weak-scaling wall time ~flat (efficiency ~1.0 at 128
// e/rank); strong-scaling efficiency decays with P (paper: 0.843 at
// 98,304 ranks).

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/mesh/baseline.hpp"
#include "mlmd/mesh/multidomain.hpp"
#include "mlmd/par/transport.hpp"
#include "mlmd/perf/machine.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known(
          {"steps", "node_speedup", "model", "ranks", "md_steps", "transport",
           "json"},
          "usage: bench_fig4_dcmesh_scaling [--steps=N] [--node_speedup=X] "
          "[--model=0|1] [--ranks=N] [--md_steps=N] "
          "[--transport=inproc|shm] [--json=path]"))
    return 1;

  int steps = 8, ranks = 4, md_steps = 1;
  bool model = true;
  double node_speedup_flag = -1.0;
  std::string json_path;
  try {
    steps = static_cast<int>(cli.integer("steps", 8));
    ranks = static_cast<int>(cli.integer("ranks", 4));
    md_steps = static_cast<int>(cli.integer("md_steps", 1));
    model = cli.flag("model", true);
    node_speedup_flag = cli.real("node_speedup", -1.0);
    json_path = cli.str("json", "");
    par::set_default_transport(cli.choice("transport", par::kTransportChoices,
                                          par::default_transport()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // --- calibrate the per-rank compute model from real runs --------------
  if (model) {
    std::printf("# calibrating DC-MESH per-domain cost from measured runs...\n");
    std::vector<double> nelec, secs;
    struct Cfg {
      std::size_t n, norb;
    };
    for (const Cfg& c : {Cfg{10, 8}, Cfg{12, 16}, Cfg{14, 32}, Cfg{16, 64}}) {
      auto r = mesh::run_dc_domain(c.n, c.norb, steps);
      nelec.push_back(static_cast<double>(r.electrons));
      secs.push_back(r.seconds_per_qd_step * static_cast<double>(r.electrons) /
                     static_cast<double>(r.electrons)); // sec per QD step
      std::printf("#   %3zu electrons: %.4e s/QD-step\n", r.electrons,
                  r.seconds_per_qd_step);
    }
    auto comp = perf::DcMeshCompute::fit(nelec, secs);
    // Scale the measured per-domain cost to the paper's node class: Aurora
    // spends ~1.7 ms per rank per QD step at 128 electrons/rank (1.705 s
    // per 1000-QD-step MD step, Sec. VII.C.1); this host is a few times
    // slower at the same granularity. The comm/compute ratio — and hence
    // the scaling shape — is evaluated at that node speed.
    const double node_speedup =
        node_speedup_flag > 0.0
            ? node_speedup_flag
            : std::max(1.0, comp.seconds(128) / 1.7e-3);
    comp.a /= node_speedup;
    comp.b /= node_speedup;
    std::printf("# fit: T_dom(n) = %.3e*n + %.3e*n^2 s/QD-step "
                "(node speedup %.1fx applied)\n", comp.a, comp.b, node_speedup);

    perf::Network net;
    const std::vector<long> weak_ranks = {6144, 12288, 24576, 49152, 98304,
                                          120000};

    for (long gran : {32L, 128L}) {
      std::printf("\n# Fig 4a: weak scaling, %ld electrons/rank\n", gran);
      std::printf("%-10s %-14s %-14s %-12s\n", "ranks", "electrons", "sec/step",
                  "efficiency");
      for (const auto& sp :
           perf::dcmesh_weak_scaling(comp, net, weak_ranks, gran))
        std::printf("%-10ld %-14ld %-14.5f %-12.4f\n", sp.p, sp.p * gran,
                    sp.seconds, sp.efficiency);
    }

    std::printf("\n# Fig 4b: strong scaling, 12,582,912 electrons\n");
    std::printf("%-10s %-16s %-14s %-12s\n", "ranks", "electrons/rank",
                "sec/step", "efficiency");
    const std::vector<long> strong_ranks = {24576, 49152, 98304};
    for (const auto& sp :
         perf::dcmesh_strong_scaling(comp, net, strong_ranks, 12582912)) {
      std::printf("%-10ld %-16ld %-14.5f %-12.4f\n", sp.p, 12582912 / sp.p,
                  sp.seconds, sp.efficiency);
    }
    std::printf("# paper reference: weak efficiency ~1.0 at 120,000 ranks; "
                "strong efficiency 0.843 at 98,304 ranks\n");

    // --- aggregate FLOP/s accounting (Sec. VII.B) -------------------------
    flops::reset();
    auto r = mesh::run_dc_domain(12, 16, steps);
    const double flops_per_domain =
        static_cast<double>(flops::total()) / steps; // per QD step
    const double agg = perf::aggregate_flops_per_sec(flops_per_domain, 120000,
                                                     comp.seconds(32));
    std::printf("\n# aggregate-FLOPs rule: %.3e FLOP/domain/step x 120,000 "
                "domains / %.2e s = %.3e FLOP/s (model)\n",
                flops_per_domain, comp.seconds(32), agg);
    (void)r;
  }

  // --- real SimComm mini-run validating the communication pattern ------
  const char* transport = par::transport_name(par::default_transport());
  mesh::ParallelMeshOptions popt;
  popt.md_steps = md_steps;
  popt.grid_n = 8;
  popt.norb = 4;
  popt.nfilled = 2;
  popt.mesh.nqd_per_md = 10;
  auto res = mesh::run_parallel_mesh(ranks, popt);
  std::printf("\n# SimComm validation (%d ranks, %d MD step(s), transport "
              "%s): n_exc gathered from %zu domains, %llu collective ops, "
              "%llu bytes\n",
              ranks, md_steps, transport,
              res.n_exc_per_domain.size(),
              static_cast<unsigned long long>(res.traffic.collective_ops),
              static_cast<unsigned long long>(res.traffic.collective_bytes));
  const auto recs = benchjson::rank_records("dcmesh_mini", res.wall_seconds,
                                           res.rank_traffic);
  if (!json_path.empty()) {
    if (!benchjson::write(json_path, recs, transport)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s (transport %s)\n", json_path.c_str(), transport);
  }
  return 0;
}
