// mlmd_run — command-line front door to the MLMD library.
//
//   mlmd_run pipeline [--lattice=48] [--sk=3] [--e0=0.08] [--dark]
//       Full Fig. 3 multiscale pipeline; prints n_exc and w, the initial
//       and final Q, the verdict, and an FNV-1a digest of the Q(t) record.
//   mlmd_run mesh [--md_steps=6] [--e0=0.05]
//       One DC-MESH domain under a pump pulse; prints per-step stats.
//   mlmd_run scf [--n=16] [--domains=2] [--buffer=2]
//       DC-DFT global-local SCF; prints convergence and band energies.
//   mlmd_run spectrum [--n=10] [--steps=1500]
//       Delta-kick absorption spectrum of one domain.
//
// Every subcommand exits 0 on success so the binary can anchor CI smoke
// runs.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mlmd/analysis/spectrum.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/ft/fault.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/mlmd/pipeline.hpp"
#include "mlmd/nnq/md_driver.hpp"
#include "mlmd/obs/obs.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/scf/dc_scf.hpp"

namespace {

using namespace mlmd;

/// FNV-1a over the bytes of `q`: one line that changes with any bit of it.
std::uint64_t fnv1a(const std::vector<double>& q) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* b = reinterpret_cast<const unsigned char*>(q.data());
  for (std::size_t i = 0; i < q.size() * sizeof(double); ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

int run_pipeline_cmd(const Cli& cli) {
  pipeline::PipelineOptions opt;
  opt.lattice = static_cast<std::size_t>(cli.integer("lattice", 48));
  opt.superlattice = static_cast<std::size_t>(cli.integer("sk", 3));
  opt.xs_steps = static_cast<int>(cli.integer("xs_steps", 400));
  opt.pulse.e0 = cli.real("e0", 0.08);
  opt.n_sat = cli.real("n_sat", 0.5);
  const bool dark = cli.flag("dark");

  // Fault-tolerance flags (DESIGN.md Sec. 10).
  opt.checkpoint_every = static_cast<int>(cli.integer("checkpoint-every", 0));
  opt.checkpoint_path = cli.str("checkpoint", "");
  opt.restore_path = cli.str("restore", "");
  if (opt.checkpoint_every > 0 && opt.checkpoint_path.empty())
    opt.checkpoint_path = "mlmd_pipeline.ckpt";
  if (cli.has("guard")) {
    opt.guard.enabled = true;
    opt.guard.policy = ft::parse_policy(cli.str("guard"));
  }
  std::optional<ft::ScopedFaults> faults;
  if (const std::string spec = cli.str("faults", ""); !spec.empty())
    faults.emplace(spec);

  try {
    auto res = pipeline::run_pipeline(opt, dark);
    std::printf("n_exc = %.4f, w = %.3f\n", res.n_exc, res.w);
    std::printf("Q: %.3f -> %.3f (%s run)\n", res.q_initial, res.q_final,
                dark ? "dark" : "pumped");
    std::printf("switched: %s\n", res.switched ? "yes" : "no");
    std::printf("q_digest = %016llx\n",
                static_cast<unsigned long long>(fnv1a(res.q_history)));
    if (res.start_step > 0 || res.checkpoints_written > 0 ||
        res.rollbacks > 0 || res.degraded)
      std::printf("ft: start_step=%ld checkpoints=%d rollbacks=%d "
                  "degraded=%s\n",
                  res.start_step, res.checkpoints_written, res.rollbacks,
                  res.degraded ? "yes" : "no");
    return 0;
  } catch (const ft::GuardTripped& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}

int run_mesh_cmd(const Cli& cli) {
  grid::Grid3 g{10, 10, 10, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
  mesh::MeshOptions opt;
  opt.nqd_per_md = static_cast<int>(cli.integer("nqd", 40));
  mesh::DcMeshDomain dom(g, 6, 3, ions, opt);
  maxwell::Pulse pulse;
  pulse.e0 = cli.real("e0", 0.05);
  pulse.omega = cli.real("omega", 0.12);
  const int steps = static_cast<int>(cli.integer("md_steps", 6));
  pulse.t0 = 0.5 * steps * dom.md_dt();
  std::printf("%-8s %-10s %-12s\n", "t[fs]", "n_exc", "E_el[Ha]");
  for (int s = 0; s < steps; ++s) {
    auto st = dom.md_step(&pulse);
    std::printf("%-8.3f %-10.5f %-12.6f\n",
                dom.time() * units::femtosecond_per_au, st.n_exc,
                st.electron_energy);
  }
  return 0;
}

int run_scf_cmd(const Cli& cli) {
  const auto n = static_cast<std::size_t>(cli.integer("n", 16));
  const int d = static_cast<int>(cli.integer("domains", 2));
  grid::Grid3 g{n, n, n, 0.8, 0.8, 0.8};
  grid::DcDecomposition dec(g, d, d, d,
                            static_cast<std::size_t>(cli.integer("buffer", 2)));
  std::vector<lfd::Ion> ions;
  for (int a = 0; a < dec.ndomains(); ++a) {
    const auto& dom = dec.domain(a);
    ions.push_back({(static_cast<double>(dom.core0[0]) + 0.5 * dom.coreN[0]) * g.hx,
                    (static_cast<double>(dom.core0[1]) + 0.5 * dom.coreN[1]) * g.hy,
                    (static_cast<double>(dom.core0[2]) + 0.5 * dom.coreN[2]) * g.hz,
                    2.5, 1.5, 2.0});
  }
  scf::ScfOptions opt;
  opt.max_outer = static_cast<int>(cli.integer("outer", 40));
  opt.tol = cli.real("tol", 3e-3);
  scf::DcScf scf(dec, ions, opt);
  auto res = scf.run();
  std::printf("converged: %s (%d iters, residual %.2e), band sum %.5f Ha\n",
              res.converged ? "yes" : "no", res.outer_iters, res.density_residual,
              res.total_energy);
  return res.converged ? 0 : 2;
}

int run_spectrum_cmd(const Cli& cli) {
  const auto n = static_cast<std::size_t>(cli.integer("n", 10));
  grid::Grid3 g{n, n, n, 0.7, 0.7, 0.7};
  lfd::LfdOptions opt;
  opt.dt_qd = 0.08;
  opt.nlp_every = 0;
  lfd::LfdDomain<double> dom(g, 6, opt);
  dom.initialize({{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.5, 1.6, 2.0}}, 3);

  const double kick = cli.real("kick", 1e-3);
  auto& w = dom.wave();
  for (std::size_t x = 0; x < g.nx; ++x)
    for (std::size_t y = 0; y < g.ny; ++y)
      for (std::size_t z = 0; z < g.nz; ++z) {
        const std::complex<double> ph(std::cos(kick * y * g.hy),
                                      std::sin(kick * y * g.hy));
        for (std::size_t s = 0; s < 6; ++s) w.at(g.index(x, y, z), s) *= ph;
      }
  std::vector<double> dipole;
  const double a0[3] = {0, 0, 0};
  const int steps = static_cast<int>(cli.integer("steps", 1500));
  for (int s = 0; s < steps; ++s) {
    dom.qd_step(a0);
    dipole.push_back(dom.dipole()[1]);
  }
  auto spec = analysis::absorption_spectrum(dipole, opt.dt_qd);
  std::printf("dominant transition: %.3f eV\n",
              analysis::dominant_frequency(spec) * units::ev_per_hartree);
  return 0;
}

int run_nnqmd_cmd(const Cli& cli) {
  // Train an Allegro-style potential on LJ reference data and run
  // thermostatted MD with it; saves the model when --model is given.
  auto base = qxmd::make_cubic_lattice(3, 3, 3, 4.6, 200.0);
  auto basis = nnq::RadialBasis::make(8, 1.5, 7.0, 1.0);
  qxmd::LjParams lj;
  lj.epsilon = 0.01;
  lj.sigma = 3.8;
  lj.rc = 8.0;
  auto data = nnq::make_lj_dataset(base, basis, lj, 60, 0.22, 77);
  nnq::Mlp net({basis.size(), 24, 16, 1}, 31);
  nnq::TrainOptions topt;
  topt.epochs = static_cast<int>(cli.integer("epochs", 150));
  auto hist = nnq::train_energy(net, data, topt);
  std::printf("train loss: %.3e -> %.3e\n", hist.epoch_loss.front(),
              hist.epoch_loss.back());
  if (cli.has("model")) net.save(cli.str("model"));

  nnq::AtomModel model(basis, std::move(net));
  qxmd::thermalize(base, cli.real("kt", 0.001), 5);
  nnq::MdOptions mopt;
  mopt.dt = cli.real("dt", 6.0);
  mopt.langevin_kt = cli.real("kt", 0.001);
  // Strong coupling: the energy-only-trained demo model has residual
  // force error that would otherwise slowly heat the run.
  mopt.langevin_gamma = cli.real("gamma", 0.03);
  nnq::NnqmdDriver driver(model, nullptr, base, mopt);
  const int steps = static_cast<int>(cli.integer("md_steps", 200));
  for (int s = 0; s < steps; ++s) driver.step();
  std::printf("final temperature: %.5f Ha (%ld steps)\n",
              driver.atoms().temperature(), driver.steps());
  // Every bit of the final positions and velocities, so a run's identity
  // across thread counts and SIMD targets is checked on the whole state.
  std::vector<double> state = driver.atoms().r;
  state.insert(state.end(), driver.atoms().v.begin(), driver.atoms().v.end());
  std::printf("md_digest = %016llx\n",
              static_cast<unsigned long long>(fnv1a(state)));
  return 0;
}

void usage() {
  std::puts(
      "usage: mlmd_run <pipeline|mesh|scf|spectrum|nnqmd> [--key=value ...]\n"
      "global options:\n"
      "  --threads=N   intra-node ThreadPool size (default: MLMD_NUM_THREADS\n"
      "                or hardware concurrency; 1 = deterministic serial)\n"
      "  --trace=PATH  write a Chrome trace-event JSON of kernel/phase/comm\n"
      "                spans to PATH; load it in chrome://tracing or Perfetto\n"
      "pipeline robustness options (DESIGN.md Sec. 10):\n"
      "  --faults=SPEC           inject deterministic faults, e.g.\n"
      "                          'inf_field@step=25'\n"
      "  --guard=POLICY          per-step sentinel: abort|rollback|degrade\n"
      "  --checkpoint=PATH       checkpoint file (default\n"
      "                          mlmd_pipeline.ckpt)\n"
      "  --checkpoint-every=N    write a checkpoint every N stage-3 steps\n"
      "  --restore=PATH          resume stage 3 from a checkpoint\n"
      "unknown --options are rejected; run with no arguments for this text");
}

/// Accepted --keys per subcommand (first the global ones).
std::vector<std::string> known_keys(const std::string& cmd) {
  std::vector<std::string> keys = {"threads", "trace"};
  auto add = [&keys](std::initializer_list<const char*> more) {
    for (const char* k : more) keys.emplace_back(k);
  };
  if (cmd == "pipeline")
    add({"lattice", "sk", "xs_steps", "e0", "n_sat", "dark", "faults",
         "guard", "checkpoint", "checkpoint-every", "restore"});
  else if (cmd == "mesh")
    add({"nqd", "e0", "omega", "md_steps"});
  else if (cmd == "scf")
    add({"n", "domains", "buffer", "outer", "tol"});
  else if (cmd == "spectrum")
    add({"n", "steps", "kick"});
  else if (cmd == "nnqmd")
    add({"epochs", "model", "kt", "dt", "gamma", "md_steps"});
  return keys;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  Cli cli(argc, argv);
  if (!cli.check_known(known_keys(cmd),
                       "run 'mlmd_run' with no arguments for usage"))
    return 1;
  int rc = 1;
  try {
    if (cli.has("threads"))
      par::ThreadPool::set_global_threads(
          static_cast<int>(cli.integer("threads", 0)));
    const std::string trace_path =
        obs::init_tracing(cli.has("trace") ? cli.str("trace") : "");
    if (cmd == "pipeline") rc = run_pipeline_cmd(cli);
    else if (cmd == "mesh") rc = run_mesh_cmd(cli);
    else if (cmd == "scf") rc = run_scf_cmd(cli);
    else if (cmd == "spectrum") rc = run_spectrum_cmd(cli);
    else if (cmd == "nnqmd") rc = run_nnqmd_cmd(cli);
    else usage();
    if (!obs::finish_tracing(trace_path) && rc == 0) rc = 1;
  } catch (const std::invalid_argument& e) {
    // Malformed option values (strict Cli numeric parsing) are usage
    // errors, not crashes.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::fprintf(stderr, "run 'mlmd_run' with no arguments for usage\n");
    return 1;
  }
  return rc;
}
