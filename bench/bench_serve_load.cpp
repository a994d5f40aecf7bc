// bench_serve_load — load generator for the mlmd::serve scheduler
// (DESIGN.md Sec. 14, ISSUE 9 acceptance bench).
//
// Closed loop (default): --tenants concurrent tenants keep --per-tenant
// kNeural scenarios in flight until all complete; the same load is served
// twice, first with batches of one session (batch_max = 1), then with
// batches of up to --batch-max, so the batching speedup on sustained
// scenario throughput is a measured, regression-tested number.
//
// Open loop (--mode=open --rps=R): scenarios are offered at R per second
// in total, whatever the completions; admission control sheds the excess
// (serve.load.rejected and the serve.rejected.* counters show the
// backpressure working).
//
// --json=PATH emits benchjson schema v3, validated by trace_check. Its
// registry section holds the measured (batched) phase's serve.*
// instruments — latency p50/p95/p99 with per-tenant lanes, batch
// occupancy, completions, deadline hits, sheds, drains — and the
// serve.load.{tenants, sessions, offered_rps, sustained_rps,
// sustained_rps_batch1, rejected} gauges this bench sets. The batching
// speedup, a ratio of two of those gauges, is printed only.
//
// Liveness knobs (DESIGN.md Sec. 15): --deadline-ms stamps every offered
// scenario with a per-request deadline and --shed-watermark-ms arms
// p95-queue-wait load shedding; serve.deadline.hits, serve.shed and
// simcomm.stalls.detected count what fired.
//
//   bench_serve_load [--tenants=4] [--per-tenant=3] [--lattice=16]
//                    [--xs-steps=30] [--inflight=8] [--batch-max=8]
//                    [--mode=closed|open] [--rps=4] [--queue-cap=8]
//                    [--deadline-ms=D] [--shed-watermark-ms=W]
//                    [--threads=N] [--json=PATH]

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/serve/server.hpp"

namespace {

using namespace mlmd;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoadShape {
  int tenants = 4;
  int per_tenant = 3;
  std::size_t lattice = 16;
  int xs_steps = 30;
};

serve::Request make_request(const LoadShape& shape, int tenant, int r,
                            long id) {
  serve::Request req;
  req.tenant = tenant;
  req.id = id;
  req.dark = (r % 2) == 1;
  req.gs_model = "gs";
  req.xs_model = "xs";
  auto& opt = req.opt;
  opt.backend = pipeline::ForceBackend::kNeural;
  opt.lattice = shape.lattice;
  opt.superlattice = 1;
  opt.relax_steps = 60;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh_md_steps = 2;
  opt.mesh.nqd_per_md = 10;
  opt.mesh.lfd.dt_qd = 0.06;
  opt.xs_steps = shape.xs_steps;
  opt.record_every = 10;
  opt.pulse.e0 = 0.10 + 0.01 * static_cast<double>(r % 5);
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 30.0;
  opt.n_sat = 0.02;
  return req;
}

struct PhaseResult {
  double elapsed_s = 0.0;
  long completed = 0;
  long rejected = 0;
};

/// Serve one full load through a fresh Server; the registry is reset
/// first so the serve.* instruments describe exactly this phase.
PhaseResult run_phase(const LoadShape& shape, serve::ServerOptions sopt,
                      std::shared_ptr<serve::ModelRegistry> models,
                      const std::string& mode, double rps) {
  auto& reg = obs::Registry::global();
  reg.reset();
  auto& completed = reg.counter("serve.completed");
  const auto completed0 = completed.value();
  serve::Server server(std::move(sopt), std::move(models));
  server.start();

  PhaseResult out;
  const double t0 = now_s();
  long id = 0;
  for (int r = 0; r < shape.per_tenant; ++r) {
    for (int t = 0; t < shape.tenants; ++t) {
      auto ticket = server.submit(make_request(shape, t, r, ++id));
      if (!ticket.accepted) ++out.rejected;
      if (mode == "open" && rps > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / rps));
    }
  }
  server.wait_all();
  out.elapsed_s = now_s() - t0;
  out.completed = static_cast<long>(completed.value() - completed0);
  server.stop();
  return out;
}

} // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (!cli.check_known({"tenants", "per-tenant", "lattice", "xs-steps",
                        "inflight", "batch-max", "mode", "rps", "queue-cap",
                        "quota", "deadline-ms", "shed-watermark-ms", "threads",
                        "json"},
                       "usage: bench_serve_load [--tenants=4] [--per-tenant=3]"
                       " [--mode=closed|open] [--json=PATH] ..."))
    return 1;
  try {
    if (cli.has("threads"))
      par::ThreadPool::set_global_threads(
          static_cast<int>(cli.integer("threads", 0)));

    LoadShape shape;
    shape.tenants = static_cast<int>(cli.integer("tenants", 4));
    shape.per_tenant = static_cast<int>(cli.integer("per-tenant", 3));
    shape.lattice = static_cast<std::size_t>(cli.integer("lattice", 16));
    shape.xs_steps = static_cast<int>(cli.integer("xs-steps", 30));
    const std::string mode = cli.str("mode", "closed");
    if (mode != "closed" && mode != "open")
      throw std::invalid_argument("--mode must be closed or open");
    const double rps = cli.real("rps", 4.0);
    const long total = static_cast<long>(shape.tenants) * shape.per_tenant;

    auto models = std::make_shared<serve::ModelRegistry>();
    {
      auto gs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
      auto xs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
      auto gs = std::make_shared<nnq::LatticeModel>(
          std::vector<std::size_t>{12, 12}, 5);
      auto xs = std::make_shared<nnq::LatticeModel>(
          std::vector<std::size_t>{12, 12}, 6);
      nnq::TrainOptions topt;
      topt.epochs = 10;
      nnq::train_energy(gs->net(), gs_data, topt);
      nnq::train_energy(xs->net(), xs_data, topt);
      models->add("gs", std::move(gs));
      models->add("xs", std::move(xs));
    }

    serve::ServerOptions sopt;
    sopt.max_inflight = static_cast<std::size_t>(cli.integer("inflight", 8));
    sopt.batch_max = static_cast<std::size_t>(cli.integer("batch-max", 8));
    sopt.queue_capacity = static_cast<std::size_t>(cli.integer(
        "queue-cap", mode == "open" ? 8 : total + 8));
    sopt.tenant_quota = static_cast<std::size_t>(cli.integer("quota", 0));
    sopt.checkpoint_every = 0;
    const double deadline_ms = cli.real("deadline-ms", -1.0);
    if (deadline_ms > 0.0) sopt.default_deadline_ms = deadline_ms;
    sopt.shed_watermark_ms = cli.real("shed-watermark-ms", 0.0);

    // Phase 1: the same load with one session per inference batch — the
    // baseline the speedup is measured against.
    serve::ServerOptions batch1 = sopt;
    batch1.batch_max = 1;
    const auto base = run_phase(shape, batch1, models, mode, rps);

    // Phase 2: micro-batcher on. run_phase resets the registry, so the
    // serve.* instruments describe exactly this measured phase.
    const auto batched = run_phase(shape, sopt, models, mode, rps);

    auto& reg = obs::Registry::global();
    const auto per_s = [](const PhaseResult& p) {
      return p.elapsed_s > 0 ? static_cast<double>(p.completed) / p.elapsed_s
                             : 0.0;
    };
    const double sustained = per_s(batched);
    const double sustained_batch1 = per_s(base);
    const double speedup =
        sustained_batch1 > 0 ? sustained / sustained_batch1 : 0.0;
    const std::pair<const char*, double> load[] = {
        {"tenants", shape.tenants},
        {"sessions", static_cast<double>(total)},
        // The open-loop generator sleeps 1/rps after every submission, so
        // it offers rps in total; a closed loop offers what it sustains.
        {"offered_rps", mode == "open" ? rps : sustained},
        {"sustained_rps", sustained},
        {"sustained_rps_batch1", sustained_batch1},
        {"rejected", static_cast<double>(batched.rejected)}};
    for (const auto& [name, v] : load)
      reg.gauge(std::string("serve.load.") + name).set(v);

    const auto& lat = reg.histogram("serve.latency_seconds");
    const auto count = [&](const char* name) {
      return static_cast<unsigned long long>(reg.counter(name).value());
    };
    std::printf("%-22s %10s %12s %10s\n", "phase", "elapsed", "sustained",
                "completed");
    std::printf("%-22s %9.3fs %9.3f/s %10ld\n", "closed.batch1",
                base.elapsed_s, sustained_batch1, base.completed);
    std::printf("%-22s %9.3fs %9.3f/s %10ld\n", "closed.batchN",
                batched.elapsed_s, sustained, batched.completed);
    std::printf("batch speedup: %.2fx (occupancy mean %.2f)\n", speedup,
                reg.histogram("serve.batch.occupancy").mean());
    std::printf("latency p50/p95/p99: %.3f / %.3f / %.3f s\n",
                lat.quantile(0.50), lat.quantile(0.95), lat.quantile(0.99));
    std::printf("liveness: %llu deadline hits, %llu sheds, %llu stalls "
                "detected, %llu drained\n",
                count("serve.deadline.hits"), count("serve.shed"),
                count("simcomm.stalls.detected"), count("serve.drained"));

    if (cli.has("json")) {
      std::vector<benchjson::Record> recs(2);
      recs[0].kernel = "serve." + mode + ".batch1";
      recs[0].seconds = base.elapsed_s;
      recs[1].kernel = "serve." + mode + ".batchN";
      recs[1].seconds = batched.elapsed_s;
      if (!benchjson::write(cli.str("json"), recs)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     cli.str("json").c_str());
        return 1;
      }
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
