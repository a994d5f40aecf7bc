// Fig. 5 reproduction: XS-NNQMD weak scaling (a) at 160k / 640k / 10.24M
// atoms per rank and strong scaling (b) for 221.4M and 984M atoms.
//
// The per-atom inference cost is MEASURED from real AtomModel inference on
// this host; the halo/allreduce terms come from the calibrated network
// model. Expected shape: weak efficiencies ~0.957 / 0.964 / 0.997
// (better at larger granularity); strong efficiency 0.773 for the large
// problem but collapsing to ~0.44 for the small one (comm/compute ratio).
//
// A real SimComm mini-run exercises the halo-exchange + energy-allreduce
// pattern over the selected transport (--transport=inproc|shm, DESIGN.md
// Sec. 11); --json=<path> emits one benchjson record per rank whose
// comm_bytes must be identical across transports (trace_check
// --compare-comm). --model=0 skips the analytic sweeps for CI smoke.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/par/simcomm.hpp"
#include "mlmd/par/transport.hpp"
#include "mlmd/perf/machine.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known(
          {"lattice", "steps", "node_speedup", "model", "ranks", "halo_steps",
           "transport", "json"},
          "usage: bench_fig5_nnqmd_scaling [--lattice=N] [--steps=N] "
          "[--node_speedup=X] [--model=0|1] [--ranks=N] [--halo_steps=N] "
          "[--transport=inproc|shm] [--json=path]"))
    return 1;

  std::size_t lat = 12;
  int steps = 3, ranks = 4, halo_steps = 4;
  bool model = true;
  double node_speedup = 1000.0;
  std::string json_path;
  try {
    lat = static_cast<std::size_t>(cli.integer("lattice", 12));
    steps = static_cast<int>(cli.integer("steps", 3));
    ranks = static_cast<int>(cli.integer("ranks", 4));
    halo_steps = static_cast<int>(cli.integer("halo_steps", 4));
    model = cli.flag("model", true);
    node_speedup = cli.real("node_speedup", 1000.0);
    json_path = cli.str("json", "");
    par::set_default_transport(cli.choice("transport", par::kTransportChoices,
                                          par::default_transport()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (model) {
    // --- measure per-atom NN inference cost -----------------------------
    auto atoms = qxmd::make_cubic_lattice(lat, lat, lat, 5.0, 2000.0);
    qxmd::NeighborList nl(atoms, 9.0);
    nnq::AtomModel nn(nnq::RadialBasis::make(16, 2.0, 9.0, 1.2), {64, 64, 32});
    std::vector<double> forces;
    Timer t;
    for (int i = 0; i < steps; ++i) nn.energy_forces(atoms, nl, forces, 4096);
    perf::NnqmdCompute comp;
    const double t_atom_host =
        t.seconds() / steps / static_cast<double>(atoms.n());
    // Scaling *shape* is set by the comm/compute ratio at the paper's node
    // speed. A PVC tile runs Allegro inference ~10^3 faster than this one
    // CPU core (the paper's 1.2288e12 atoms / 120,000 ranks finish a step
    // in 1590 s, i.e. ~3.1e-5 s/atom like this host — but with a 690k-weight
    // model ~100x larger than ours). Scale the measured per-atom cost to
    // that node class and keep the calibrated network model.
    comp.t_atom = t_atom_host / node_speedup;
    std::printf("# measured NN inference: %.3e s/atom/step on this core "
                "(%zu atoms, %zu weights); modeled node = %.0fx -> %.3e\n",
                t_atom_host, atoms.n(), nn.n_weights(), node_speedup,
                comp.t_atom);

    perf::Network net;
    const std::vector<long> weak_ranks = {7500, 15000, 30000, 60000, 120000};

    for (long gran : {160000L, 640000L, 10240000L}) {
      std::printf("\n# Fig 5a: weak scaling, %ld atoms/rank\n", gran);
      std::printf("%-10s %-16s %-14s %-12s\n", "ranks", "atoms", "sec/step",
                  "efficiency");
      for (const auto& sp :
           perf::nnqmd_weak_scaling(comp, net, weak_ranks, gran))
        std::printf("%-10ld %-16.3e %-14.3f %-12.4f\n", sp.p,
                    static_cast<double>(sp.p) * static_cast<double>(gran),
                    sp.seconds, sp.efficiency);
    }

    const std::vector<long> strong_ranks = {9225, 18450, 36900, 73800};
    for (long natoms : {221400000L, 984000000L}) {
      std::printf("\n# Fig 5b: strong scaling, %ld atoms\n", natoms);
      std::printf("%-10s %-16s %-14s %-12s\n", "ranks", "atoms/rank",
                  "sec/step", "efficiency");
      for (const auto& sp :
           perf::nnqmd_strong_scaling(comp, net, strong_ranks, natoms))
        std::printf("%-10ld %-16ld %-14.4f %-12.4f\n", sp.p, natoms / sp.p,
                    sp.seconds, sp.efficiency);
    }
    std::printf("\n# paper reference: weak 0.957/0.964/0.997; strong 0.773 "
                "(984M atoms) vs 0.440 (221.4M)\n");

    // Block-inference memory accounting (Sec. V.B.9).
    nn.energy_forces(atoms, nl, forces, /*block_size=*/0);
    const std::size_t full = nn.last_peak_scratch_bytes();
    nn.energy_forces(atoms, nl, forces, /*block_size=*/256);
    const std::size_t blocked = nn.last_peak_scratch_bytes();
    std::printf("# block inference: peak descriptor scratch %zu B -> %zu B "
                "(%.0fx reduction); neighbor-list tensor %zu B\n",
                full, blocked,
                static_cast<double>(full) / static_cast<double>(blocked),
                nl.memory_bytes());
  }

  // --- real SimComm mini-run: halo exchange + energy allreduce ----------
  // The measured counterpart of the modeled comm terms above: each rank
  // exchanges a fixed halo slab with its ring neighbours (the Fig. 5
  // divide-and-conquer boundary pattern) and joins a global energy
  // allreduce per step. par::run returns every rank's account, identical
  // across transports.
  const char* transport = par::transport_name(par::default_transport());
  constexpr std::size_t kHaloDoubles = 512; // fixed slab per exchange
  Timer wall;
  const auto traffic = par::run(ranks, [&](par::Comm& comm) {
    const int rank = comm.rank();
    const int n = comm.size();
    const int right = (rank + 1) % n;
    const int left = (rank + n - 1) % n;
    std::vector<double> halo(kHaloDoubles,
                             static_cast<double>(rank) + 0.25);
    std::vector<double> recvd;
    double energy = 1.0 + 0.01 * static_cast<double>(rank);
    // The halo slab is constant across steps, so step s+1's exchange is
    // posted before step s's energy allreduce: the p2p transfer overlaps
    // the collective. With n == 1 the ring degenerates to a self-send, so
    // the exchange is skipped entirely.
    par::CommHandle hs, hr;
    if (n > 1) {
      hs = comm.isend(right, /*tag=*/0, std::span<const double>(halo));
      hr = comm.irecv(left, /*tag=*/0);
    }
    for (int s = 0; s < halo_steps; ++s) {
      if (n > 1) {
        comm.wait_into(hr, recvd);
        hs.wait();
        energy += recvd.empty() ? 0.0 : recvd.front() * 1e-3;
        if (s + 1 < halo_steps) {
          hs = comm.isend(right, s + 1, std::span<const double>(halo));
          hr = comm.irecv(left, s + 1);
        }
      }
      auto e_all = comm.allreduce(energy, par::ReduceOp::kSum);
      energy = 0.5 * (energy + e_all / static_cast<double>(n));
    }
  });
  const double wall_seconds = wall.seconds();
  std::printf("\n# SimComm halo mini-run (%d ranks, %d steps, transport %s): "
              "%llu messages, %llu p2p bytes, %llu collective bytes\n",
              ranks, halo_steps, transport,
              static_cast<unsigned long long>(traffic.messages),
              static_cast<unsigned long long>(traffic.p2p_bytes),
              static_cast<unsigned long long>(traffic.collective_bytes));
  const auto recs =
      benchjson::rank_records("nnqmd_halo", wall_seconds, traffic.ranks);
  if (!json_path.empty()) {
    if (!benchjson::write(json_path, recs, transport)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("# wrote %s (transport %s)\n", json_path.c_str(), transport);
  }
  return 0;
}
