// Table II reproduction: XS-NNQMD time-to-solution, defined by the paper
// as seconds / (atom * weight * MD step) to normalize across model sizes.
//
// Baseline: a 440-weight small network (matching Linker et al. 2022's
// model size). This work: a larger Allegro-FM-style network. The paper's
// claim is that the per-(atom*weight) cost *drops* for the bigger, better-
// structured model on better hardware; here both run on one core, so the
// measured ratio reflects the software efficiency term, and the machine
// model extrapolates to the paper's 1.23 trillion atoms on 10,000 nodes.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/ft/fault.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/obs/obs.hpp"
#include "mlmd/perf/machine.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"

namespace {

struct Meas {
  double sec_per_step = 0.0;
  double t2s = 0.0; ///< sec / (atom * weight * step)
  double gflops = 0.0;
  unsigned long long bytes_alloc = 0; ///< arena growth in the final step
  std::size_t weights = 0;
  double total_seconds = 0.0; ///< wall time summed over ALL repetitions
  unsigned long long span_count = 0;
  mlmd::obs::CommTotals comm;
};

Meas measure_model(const mlmd::nnq::AtomModel& model, const mlmd::qxmd::Atoms& atoms,
                   const mlmd::qxmd::NeighborList& nl, int steps) {
  // Best-of-N per step (as in bench_table5): a scheduling hiccup in one
  // step cannot inflate the recorded time-to-solution. bytes_alloc comes
  // from the final, arena-warm step.
  std::vector<double> forces;
  Meas m;
  m.sec_per_step = 1e300;
  const auto spans0 = mlmd::obs::Tracer::span_count();
  const auto comm0 = mlmd::obs::comm_totals();
  for (int i = 0; i < steps; ++i) {
    mlmd::ft::set_step(i);
    const auto r0 = mlmd::common::Workspace::total_reserved_bytes();
    mlmd::flops::Scope scope;
    mlmd::Timer t;
    model.energy_forces(atoms, nl, forces, /*block_size=*/4096);
    // Fault-injection point (--faults / MLMD_FAULTS): corrupted forces
    // here surface in the emitted "ft" benchjson block.
    if (!forces.empty()) mlmd::ft::hook_forces(i, forces.data(), forces.size());
    const double secs = t.seconds();
    m.total_seconds += secs;
    m.bytes_alloc = mlmd::common::Workspace::total_reserved_bytes() - r0;
    if (secs < m.sec_per_step) {
      m.sec_per_step = secs;
      m.gflops = static_cast<double>(scope.flops()) / secs / 1e9;
    }
  }
  const auto comm1 = mlmd::obs::comm_totals();
  m.span_count = mlmd::obs::Tracer::span_count() - spans0;
  m.comm.bytes = comm1.bytes - comm0.bytes;
  m.comm.wait_seconds = comm1.wait_seconds - comm0.wait_seconds;
  m.weights = model.n_weights();
  m.t2s = m.sec_per_step /
          (static_cast<double>(atoms.n()) * static_cast<double>(m.weights));
  return m;
}

} // namespace

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"lattice", "steps", "trace", "json", "faults"},
                       "usage: bench_table2_xs_t2s [--lattice=N] [--steps=N] "
                       "[--trace[=path]] [--json=path] [--faults=SPEC]"))
    return 1;
  const auto lat = static_cast<std::size_t>(cli.integer("lattice", 12));
  const int steps = static_cast<int>(cli.integer("steps", 3));
  const std::string trace_path =
      obs::init_tracing(cli.has("trace") ? cli.str("trace") : "");

  // Optional deterministic fault injection (DESIGN.md Sec. 10): same
  // SPEC syntax as mlmd_run; injections land in the forces hook above
  // and in the ft.* instruments of the --json registry section.
  std::string fault_spec = cli.str("faults", "");
  if (fault_spec.empty())
    if (const char* env = std::getenv("MLMD_FAULTS")) fault_spec = env;
  std::optional<ft::ScopedFaults> faults;
  if (!fault_spec.empty()) {
    try {
      faults.emplace(fault_spec);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: bad --faults spec: %s\n", e.what());
      return 1;
    }
  }

  auto atoms = qxmd::make_cubic_lattice(lat, lat, lat, 5.0, 2000.0);
  qxmd::NeighborList nl(atoms, 9.0);

  // Baseline: descriptor 8 -> [25, 8] -> 1 gives 442 weights, matching the
  // 440-weight model of Linker et al. (2022).
  nnq::AtomModel small(nnq::RadialBasis::make(8, 2.0, 9.0, 1.5), {25, 8});
  // This work: FM-scale network (weights count like the paper's 690k is
  // infeasible at laptop latency; scaled proportionally).
  nnq::AtomModel big(nnq::RadialBasis::make(16, 2.0, 9.0, 1.2), {64, 64, 32});

  std::printf("# Table II: XS-NNQMD T2S [sec/(atom*weight*step)], %zu atoms\n",
              atoms.n());
  std::printf("%-26s %-10s %-12s %-14s\n", "Model", "weights", "sec/step",
              "T2S");

  const auto m_small = measure_model(small, atoms, nl, steps);
  std::printf("%-26s %-10zu %-12.4f %-14.4e\n", "Small net (SOTA 2022)",
              m_small.weights, m_small.sec_per_step, m_small.t2s);
  const auto m_big = measure_model(big, atoms, nl, steps);
  std::printf("%-26s %-10zu %-12.4f %-14.4e\n", "Allegro-FM style (this work)",
              m_big.weights, m_big.sec_per_step, m_big.t2s);
  std::printf("# measured T2S improvement: %.1fx (paper: 3,780x incl. Aurora "
              "vs Theta hardware)\n", m_small.t2s / m_big.t2s);

  // Machine-model extrapolation to the paper's run.
  perf::NnqmdCompute comp;
  comp.t_atom = m_big.sec_per_step / static_cast<double>(atoms.n());
  perf::Network net;
  const long p = 120000;
  const double atoms_per_rank = 1.2288e12 / static_cast<double>(p);
  const double t_step = comp.t_atom * atoms_per_rank +
                        net.halo(static_cast<std::size_t>(
                            6.0 * std::pow(atoms_per_rank, 2.0 / 3.0) * 64.0)) +
                        net.allreduce(p, 8);
  std::printf("# model-extrapolated paper config (1.2288e12 atoms, %ld ranks): "
              "%.1f sec/step -> T2S %.3e s/(atom*weight)\n",
              p, t_step,
              t_step / (1.2288e12 * static_cast<double>(m_big.weights)));
  std::printf("# paper reference: 7.09e-12 (Theta, 2022) -> 1.88e-15 (Aurora, "
              "this work)\n");

  if (cli.has("json")) {
    const auto rec = [](const char* kernel, const Meas& m) {
      return benchjson::Record{.kernel = kernel,
                               .gflops = m.gflops,
                               .bytes_alloc = m.bytes_alloc,
                               .seconds = m.sec_per_step,
                               .comm_bytes = m.comm.bytes,
                               .comm_seconds = m.comm.wait_seconds,
                               .span_count = m.span_count};
    };
    const std::vector<benchjson::Record> recs{rec("table2_small_net", m_small),
                                              rec("table2_big_net", m_big)};
    const std::string path = cli.str("json");
    if (!benchjson::write(path, recs))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  if (!trace_path.empty()) {
    // Tracer-accuracy cross-check (EXPERIMENTS.md): the nnq.energy_forces
    // kernel spans bracket exactly the region the bench timed itself, so
    // their sum must match the measured kernel wall to within 10% — a
    // mismatch means the tracer's clocks or span bracketing drifted. The
    // gemm line below that is the compute breakdown: at these model sizes
    // energy_forces is descriptor-bound, so gemm is a minority share.
    const double ef_s = obs::Tracer::summed_seconds("nnq.energy_forces");
    const double gemm_s = obs::Tracer::summed_seconds("gemm");
    const double wall_s = m_small.total_seconds + m_big.total_seconds;
    std::printf("# trace: %.4f s in energy_forces spans vs %.4f s measured "
                "kernel wall (%.1f%%)\n",
                ef_s, wall_s, wall_s > 0 ? 100.0 * ef_s / wall_s : 0.0);
    std::printf("# trace: %.4f s (%.1f%% of kernel wall) inside gemm spans\n",
                gemm_s, wall_s > 0 ? 100.0 * gemm_s / wall_s : 0.0);
    obs::finish_tracing(trace_path);
  }
  return 0;
}
