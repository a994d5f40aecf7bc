// mlmd::serve (DESIGN.md Sec. 14): admission queue fairness and
// backpressure, cross-request micro-batcher bitwise identity, server
// lifecycle, per-tenant metric lanes, and SIGKILL warm restart. The
// ServeFork suite forks (TSan cannot follow fork), so the tsan aggregate
// in CMakeLists.txt filters it out — same pattern as test_transport.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/serve/server.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::serve;

// --- shared fixtures --------------------------------------------------------

/// Tiny GS/XS models, trained once per binary (seconds, reused by every
/// server test below). Same shapes as the mlmd_serve daemon's defaults.
struct Models {
  std::shared_ptr<nnq::LatticeModel> gs, xs;
};
const Models& trained_models() {
  static const Models m = [] {
    auto gs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
    auto xs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
    Models out;
    out.gs = std::make_shared<nnq::LatticeModel>(
        std::vector<std::size_t>{12, 12}, 5);
    out.xs = std::make_shared<nnq::LatticeModel>(
        std::vector<std::size_t>{12, 12}, 6);
    nnq::TrainOptions topt;
    topt.epochs = 10;
    nnq::train_energy(out.gs->net(), gs_data, topt);
    nnq::train_energy(out.xs->net(), xs_data, topt);
    return out;
  }();
  return m;
}

std::shared_ptr<ModelRegistry> registry() {
  auto reg = std::make_shared<ModelRegistry>();
  reg->add("gs", trained_models().gs);
  reg->add("xs", trained_models().xs);
  return reg;
}

pipeline::PipelineOptions neural_options(int variant) {
  pipeline::PipelineOptions opt;
  opt.backend = pipeline::ForceBackend::kNeural;
  opt.lattice = 16;
  opt.superlattice = 1;
  opt.relax_steps = 60;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh_md_steps = 2;
  opt.mesh.nqd_per_md = 10;
  opt.mesh.lfd.dt_qd = 0.06;
  opt.xs_steps = 30;
  opt.record_every = 10;
  opt.pulse.e0 = 0.10 + 0.01 * static_cast<double>(variant % 5);
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 30.0;
  opt.n_sat = 0.02;
  return opt;
}

/// A request that resolves its models through the registry.
Request neural_request(int tenant, long id, bool dark, int variant) {
  Request req;
  req.tenant = tenant;
  req.id = id;
  req.dark = dark;
  req.gs_model = "gs";
  req.xs_model = "xs";
  req.opt = neural_options(variant);
  return req;
}

void expect_bitwise_equal(const pipeline::PipelineResult& a,
                          const pipeline::PipelineResult& b) {
  EXPECT_EQ(a.n_exc, b.n_exc);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.q_initial, b.q_initial);
  EXPECT_EQ(a.q_final, b.q_final);
  EXPECT_EQ(a.switched, b.switched);
  ASSERT_EQ(a.q_history.size(), b.q_history.size());
  for (std::size_t i = 0; i < a.q_history.size(); ++i)
    EXPECT_EQ(a.q_history[i], b.q_history[i]);
}

// --- admission queue --------------------------------------------------------

/// Structurally valid kExact request (default options pass validation).
Request exact_request(int tenant, long id) {
  Request req;
  req.tenant = tenant;
  req.id = id;
  return req;
}

TEST(RequestQueue, RejectsWhenFullWithReason) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(exact_request(0, 1)).accepted);
  EXPECT_TRUE(q.push(exact_request(1, 2)).accepted);
  const auto t = q.push(exact_request(2, 3));
  EXPECT_FALSE(t.accepted);
  EXPECT_EQ(t.reason, Reject::kQueueFull);
  EXPECT_STREQ(reject_name(t.reason), "queue_full");
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, TenantQuotaCountsQueuedPlusInflight) {
  RequestQueue q(8, /*tenant_quota=*/2);
  EXPECT_TRUE(q.push(exact_request(0, 1)).accepted);
  EXPECT_TRUE(q.push(exact_request(0, 2)).accepted);
  EXPECT_EQ(q.push(exact_request(0, 3)).reason, Reject::kTenantQuota);
  // Other tenants are unaffected: quotas are per-tenant.
  EXPECT_TRUE(q.push(exact_request(1, 4)).accepted);

  // Popping moves tenant 0's scenario to in-flight — still counted.
  Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.tenant, 0);
  EXPECT_EQ(q.load(0), 2u);
  EXPECT_EQ(q.push(exact_request(0, 5)).reason, Reject::kTenantQuota);

  // Completion releases the slot.
  q.on_done(0);
  EXPECT_TRUE(q.push(exact_request(0, 6)).accepted);
}

TEST(RequestQueue, PopsRoundRobinAcrossTenants) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(exact_request(0, 1)).accepted);
  ASSERT_TRUE(q.push(exact_request(0, 2)).accepted);
  ASSERT_TRUE(q.push(exact_request(1, 3)).accepted);
  ASSERT_TRUE(q.push(exact_request(2, 4)).accepted);

  // A flooding tenant (two queued) cannot starve the others: dequeue
  // order cycles 0 -> 1 -> 2 -> 0.
  std::vector<long> order;
  Request r;
  while (q.pop(r)) order.push_back(r.id);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 4);
  EXPECT_EQ(order[3], 2);
}

TEST(RequestQueue, StopRejectsNewPushesButDrainsQueued) {
  RequestQueue q(8);
  ASSERT_TRUE(q.push(exact_request(0, 1)).accepted);
  q.stop();
  EXPECT_EQ(q.push(exact_request(0, 2)).reason, Reject::kStopped);
  Request r;
  EXPECT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 1);
  EXPECT_FALSE(q.pop(r));
}

TEST(RequestQueue, StructurallyInvalidRequestsAreRejected) {
  RequestQueue q(8);
  auto no_lattice = exact_request(0, 1);
  no_lattice.opt.lattice = 0;
  EXPECT_EQ(q.push(no_lattice).reason, Reject::kBadRequest);

  // kNeural without models or registry names cannot ever activate.
  auto neural = exact_request(0, 2);
  neural.opt.backend = pipeline::ForceBackend::kNeural;
  EXPECT_EQ(q.push(neural).reason, Reject::kBadRequest);
  neural.gs_model = "gs";
  neural.xs_model = "xs";
  EXPECT_TRUE(q.push(neural).accepted);
}

TEST(RequestQueue, PerReasonRejectCountersHavePerTenantLanes) {
  // Every typed reject lands on three obs lanes: the global roll-up, the
  // per-reason counter, and the per-tenant per-reason lane — so a
  // dashboard can tell WHOSE requests die and WHY.
  obs::Registry::global().reset();
  RequestQueue q(2, /*tenant_quota=*/1);
  ASSERT_TRUE(q.push(exact_request(0, 1)).accepted);
  EXPECT_EQ(q.push(exact_request(0, 2)).reason, Reject::kTenantQuota);
  ASSERT_TRUE(q.push(exact_request(1, 3)).accepted);
  EXPECT_EQ(q.push(exact_request(2, 4)).reason, Reject::kQueueFull);
  EXPECT_EQ(q.push(exact_request(2, 5)).reason, Reject::kQueueFull);
  auto bad = exact_request(3, 6);
  bad.opt.lattice = 0;
  EXPECT_EQ(q.push(bad).reason, Reject::kBadRequest);
  q.stop();
  EXPECT_EQ(q.push(exact_request(0, 7)).reason, Reject::kStopped);

  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("serve.requests.rejected").value(), 5u);
  EXPECT_EQ(reg.counter("serve.rejected.tenant_quota").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.tenant_quota.t0").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.queue_full").value(), 2u);
  EXPECT_EQ(reg.counter("serve.rejected.queue_full.t2").value(), 2u);
  EXPECT_EQ(reg.counter("serve.rejected.bad_request").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.bad_request.t3").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.stopped.t0").value(), 1u);
  // Untouched lanes stay zero: reasons never blur into each other.
  EXPECT_EQ(reg.counter("serve.rejected.queue_full.t0").value(), 0u);
}

// --- batched inference bitwise identity -------------------------------------

ferro::FerroLattice random_lattice(std::size_t n, int seed) {
  ferro::FerroLattice lat(n, n);
  Rng rng(seed);
  for (auto& u : lat.field())
    u = {0.3 * rng.normal(), 0.3 * rng.normal(), 0.5 + 0.2 * rng.normal()};
  return lat;
}

TEST(ForcesMulti, BitwiseIdenticalToPerLatticeForces) {
  // Different sizes on purpose: the shared inference blocks straddle the
  // lattice boundary, so the scatter must split per sub-range.
  const auto a = random_lattice(8, 21);
  const auto b = random_lattice(12, 22);
  const auto& model = *trained_models().gs;

  const auto multi = nnq::forces_multi(model, {&a, &b});
  const auto fa = model.forces(a);
  const auto fb = model.forces(b);
  ASSERT_EQ(multi.size(), 2u);
  ASSERT_EQ(multi[0].size(), fa.size());
  ASSERT_EQ(multi[1].size(), fb.size());
  EXPECT_EQ(0, std::memcmp(multi[0].data(), fa.data(),
                           fa.size() * sizeof(ferro::Vec3)));
  EXPECT_EQ(0, std::memcmp(multi[1].data(), fb.data(),
                           fb.size() * sizeof(ferro::Vec3)));
}

TEST(ForcesMulti, MixedForcesMatchPerScenarioEquation4) {
  const auto a = random_lattice(8, 23);
  const auto b = random_lattice(8, 24);
  const auto& gs = *trained_models().gs;
  const auto& xs = *trained_models().xs;
  const std::vector<double> n_exc = {0.0, 0.011};
  const std::vector<double> n_sat = {0.02, 0.02};

  const auto multi = nnq::xs_mixed_forces_multi(gs, xs, {&a, &b}, n_exc, n_sat);
  const std::vector<const ferro::FerroLattice*> lats = {&a, &b};
  for (std::size_t i = 0; i < lats.size(); ++i) {
    const auto ref = nnq::xs_mixed_forces(gs, xs, *lats[i], n_exc[i], n_sat[i]);
    ASSERT_EQ(multi[i].size(), ref.size());
    EXPECT_EQ(0, std::memcmp(multi[i].data(), ref.data(),
                             ref.size() * sizeof(ferro::Vec3)));
  }
}

TEST(MicroBatcher, BatchedSteppingMatchesDedicatedRunsBitwise) {
  // Three concurrent scenarios (two pumped at different fluence, one
  // dark), stepped exclusively through the batcher with verify mode on —
  // every fused evaluation is memcmp'd against the unbatched forces.
  std::vector<bool> dark = {false, true, false};
  std::vector<pipeline::PipelineResult> refs;
  std::vector<std::unique_ptr<pipeline::Session>> sessions;
  for (int i = 0; i < 3; ++i) {
    auto opt = neural_options(i);
    opt.gs_model = trained_models().gs;
    opt.xs_model = trained_models().xs;
    refs.push_back(pipeline::run_pipeline(opt, dark[static_cast<size_t>(i)]));
    sessions.push_back(std::make_unique<pipeline::Session>(
        opt, dark[static_cast<size_t>(i)]));
    sessions.back()->prepare();
  }

  // max_batch=2 forces chunking: 3 sessions -> fused groups of 2 + 1.
  MicroBatcher batcher(/*max_batch=*/2, /*verify=*/true);
  for (;;) {
    std::vector<pipeline::Session*> group;
    for (auto& s : sessions)
      if (s->wants_neural_forces()) group.push_back(s.get());
    if (group.empty()) break;
    EXPECT_EQ(batcher.step_group(group), group.size());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sessions[static_cast<size_t>(i)]->done());
    expect_bitwise_equal(sessions[static_cast<size_t>(i)]->result(),
                         refs[static_cast<size_t>(i)]);
  }
}

// --- server lifecycle -------------------------------------------------------

TEST(Server, OutcomesMatchRunPipelineBitwise) {
  // Mixed light/dark load over two tenants, registry-resolved models,
  // verify_batching on: every concurrently served scenario must be
  // byte-identical to its dedicated run_pipeline run.
  ServerOptions sopt;
  sopt.max_inflight = 4;
  sopt.verify_batching = true;
  Server server(sopt, registry());
  server.start();

  std::vector<Request> reqs;
  reqs.push_back(neural_request(0, 1, /*dark=*/false, 0));
  reqs.push_back(neural_request(0, 2, /*dark=*/true, 1));
  reqs.push_back(neural_request(1, 3, /*dark=*/false, 2));
  reqs.push_back(neural_request(1, 4, /*dark=*/true, 3));
  for (const auto& r : reqs) ASSERT_TRUE(server.submit(r).accepted);

  for (const auto& r : reqs) {
    auto out = server.wait(r.id);
    ASSERT_TRUE(out.ok) << out.error;
    auto opt = r.opt;
    opt.gs_model = trained_models().gs;
    opt.xs_model = trained_models().xs;
    expect_bitwise_equal(out.result, pipeline::run_pipeline(opt, r.dark));
  }
  EXPECT_EQ(server.stats().completed, 4);
  EXPECT_EQ(server.stats().failed, 0);
  server.stop();

  // A drained server sheds new work with kStopped.
  EXPECT_EQ(server.submit(neural_request(0, 9, false, 0)).reason,
            Reject::kStopped);
}

TEST(Server, UnknownModelFailsThatScenarioOnly) {
  Server server({}, registry());
  server.start();
  auto bad = neural_request(0, 1, true, 0);
  bad.gs_model = "no-such-model";
  ASSERT_TRUE(server.submit(bad).accepted);
  ASSERT_TRUE(server.submit(neural_request(0, 2, true, 0)).accepted);

  auto out = server.wait(1);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("unknown model"), std::string::npos) << out.error;
  EXPECT_TRUE(server.wait(2).ok);
  EXPECT_EQ(server.stats().failed, 1);
  EXPECT_EQ(server.stats().completed, 1);
  server.stop();
}

TEST(Server, WaitOnUnknownIdReturnsErrorOutcome) {
  Server server({}, registry());
  server.start();
  auto out = server.wait(424242);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.error.empty());
  server.stop();
}

TEST(Server, AdmissionShedsLoadOverQueueCapacity) {
  // Submit before start(): the queue fills deterministically, so the
  // backpressure path is exercised without racing the scheduler.
  ServerOptions sopt;
  sopt.queue_capacity = 2;
  sopt.max_inflight = 1;
  Server server(sopt, registry());

  long rejected = 0;
  for (long id = 1; id <= 5; ++id) {
    const auto t = server.submit(neural_request(static_cast<int>(id), id,
                                                /*dark=*/true, 0));
    if (!t.accepted) {
      ++rejected;
      EXPECT_EQ(t.reason, Reject::kQueueFull);
    }
  }
  EXPECT_EQ(rejected, 3);

  server.start();
  server.wait_all();
  EXPECT_EQ(server.stats().completed, 2);
  server.stop();
}

TEST(Server, PerTenantMetricLanesAndLatencyQuantiles) {
  obs::Registry::global().reset();
  ServerOptions sopt;
  sopt.max_inflight = 4;
  Server server(sopt, registry());
  server.start();
  ASSERT_TRUE(server.submit(neural_request(0, 1, true, 0)).accepted);
  ASSERT_TRUE(server.submit(neural_request(0, 2, false, 1)).accepted);
  ASSERT_TRUE(server.submit(neural_request(1, 3, true, 2)).accepted);
  server.wait_all();
  server.stop();

  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("serve.requests.accepted").value(), 3u);
  EXPECT_EQ(reg.counter("serve.completed").value(), 3u);

  // Per-tenant lanes next to the aggregate, for latency and queue wait.
  const auto& lat = reg.histogram("serve.latency_seconds");
  EXPECT_EQ(lat.count(), 3u);
  EXPECT_EQ(reg.histogram("serve.latency_seconds.t0").count(), 2u);
  EXPECT_EQ(reg.histogram("serve.latency_seconds.t1").count(), 1u);
  EXPECT_EQ(reg.histogram("serve.queue.wait_seconds").count(), 3u);

  // Quantiles are ordered and clamped to the observed range.
  const double p50 = lat.quantile(0.50);
  const double p95 = lat.quantile(0.95);
  const double p99 = lat.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, lat.min());
  EXPECT_LE(p99, lat.max());

  // The micro-batcher ran fused evaluations for the concurrent sessions.
  EXPECT_GT(reg.counter("serve.batches").value(), 0u);
  EXPECT_GE(reg.histogram("serve.batch.occupancy").mean(), 1.0);
}

TEST(HistogramQuantile, TracksKnownDistributionWithinBucketError) {
  obs::Registry::global().reset();
  auto& h = obs::Registry::global().histogram("test.serve.quantile");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  // Log-bucketed (4 sub-buckets per octave): relative error <= 2^(1/4).
  const double tol = 1.19;
  EXPECT_LE(h.quantile(0.50), 500.0 * tol);
  EXPECT_GE(h.quantile(0.50), 500.0 / tol);
  EXPECT_LE(h.quantile(0.99), 990.0 * tol);
  EXPECT_GE(h.quantile(0.99), 990.0 / tol);
  EXPECT_EQ(h.quantile(1.0), 1000.0); // clamped to max
}

// --- warm restart across SIGKILL (forks; excluded from the tsan lane) -------

TEST(ServeFork, WarmRestartAfterSigkillIsBitwiseIdentical) {
  namespace fs = std::filesystem;
  // Per-process: ctest runs this case and the ubsan aggregate of this
  // binary at the same time, in one working directory.
  const std::string dir = "test_serve_fork_ckpt." + std::to_string(::getpid());
  fs::remove_all(dir);

  std::vector<Request> reqs;
  reqs.push_back(neural_request(0, 1, /*dark=*/false, 0));
  reqs.push_back(neural_request(1, 2, /*dark=*/true, 1));
  reqs.push_back(neural_request(2, 3, /*dark=*/false, 2));

  // Uninterrupted reference outcomes (no checkpointing at all).
  std::map<long, pipeline::PipelineResult> ref;
  {
    Server server({}, registry());
    server.start();
    for (const auto& r : reqs) ASSERT_TRUE(server.submit(r).accepted);
    for (const auto& r : reqs) {
      auto out = server.wait(r.id);
      ASSERT_TRUE(out.ok) << out.error;
      ref[r.id] = out.result;
    }
    server.stop();
  }

  // A child process serves the same load and is SIGKILLed mid-flight by
  // the deterministic kill_at_round hook.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    par::ThreadPool::reset_after_fork();
    ServerOptions sopt;
    sopt.checkpoint_dir = dir;
    sopt.checkpoint_every = 5;
    sopt.kill_at_round = 15; // xs_steps=30: mid-stage-3 for all three
    Server server(sopt, registry());
    server.start();
    for (const auto& r : reqs) server.submit(r);
    server.wait_all();
    _exit(0); // unreachable unless the kill hook failed
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(fs::exists(dir));
  EXPECT_FALSE(fs::is_empty(dir)); // checkpoints survived the kill

  // Warm restart: same checkpoint dir, same requests. Every scenario
  // resumes from its checkpoint (start_step > 0) and finishes
  // bitwise-identical to the uninterrupted reference.
  ServerOptions ropt;
  ropt.checkpoint_dir = dir;
  ropt.checkpoint_every = 5;
  Server server(ropt, registry());
  server.start();
  for (const auto& r : reqs) ASSERT_TRUE(server.submit(r).accepted);
  for (const auto& r : reqs) {
    auto out = server.wait(r.id);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.result.start_step, 0);
    expect_bitwise_equal(out.result, ref.at(r.id));
  }
  server.stop();
  // Terminal completion removes the per-session checkpoints.
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

} // namespace
