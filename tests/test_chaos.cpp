// Chaos-fault lane (DESIGN.md Sec. 15, `ctest -L chaos`): injected
// hangs — stalled peers, stragglers, dropped doorbells, a wedged
// scheduler — must resolve into a typed error or a graceful degrade
// within their configured deadline, never into a test timeout. Every
// case is wall-clock bounded and asserts both the outcome taxonomy
// (ft::StallError / Reject::kDeadline / kOverload / kStopped) and the
// liveness instruments that count the detections.
//
// The ChaosServe and ChaosTransport/*inproc* cases are fork-free and ride
// the tsan aggregate; ChaosShm and the shm-parameterized cases fork
// (TSan cannot follow fork) and get sanitizer coverage from the ubsan
// aggregate instead — same split as test_transport.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/simcomm.hpp"
#include "mlmd/par/transport.hpp"
#include "mlmd/serve/server.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::par;
using namespace mlmd::serve;
namespace ft = mlmd::ft;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Arms a transport progress deadline for the scope, restoring the
/// infinite default on exit so no budget leaks into later tests.
struct ScopedProgressTimeout {
  explicit ScopedProgressTimeout(double seconds) {
    set_progress_timeout(seconds);
  }
  ~ScopedProgressTimeout() { set_progress_timeout(0.0); }
  ScopedProgressTimeout(const ScopedProgressTimeout&) = delete;
  ScopedProgressTimeout& operator=(const ScopedProgressTimeout&) = delete;
};

// --- transport liveness: stalls, stragglers, lost doorbells -----------------

class ChaosTransport : public ::testing::TestWithParam<TransportKind> {
protected:
  TransportKind kind() const { return GetParam(); }
  void run_k(int nranks, const std::function<void(Comm&)>& body) {
    run(nranks, kind(), body);
  }
};

TEST_P(ChaosTransport, PeerStallMidCollectiveResolvesToStallError) {
  // Rank 1 wedges for 750 ms at its barrier entry; with a 150 ms progress
  // budget armed, rank 0's wait must convert the missing peer into a
  // typed StallError long before the sleep ends — never block on it.
  obs::Registry::global().reset();
  ft::ScopedFaults faults("stall@rank=1,ms=750");
  ScopedProgressTimeout budget(0.15);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_k(2, [](Comm& c) { c.barrier(); });
    FAIL() << "expected ft::StallError";
  } catch (const ft::StallError& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos)
        << e.what();
  }
  // Bounded: detection at ~150 ms plus the staller's 750 ms unwind.
  EXPECT_LT(seconds_since(t0), 10.0);
  // The detector (rank 0: parent-hosted on both backends) counted it.
  EXPECT_GE(obs::Registry::global().counter("simcomm.stalls.detected").value(),
            1u);
}

TEST_P(ChaosTransport, PeerStallMidIrecvResolvesToStallError) {
  // The sender wedges before its send; the receiver is parked in a
  // nonblocking wait(). The stall is detected on the RECEIVING rank —
  // under shm a forked child — so the StallError must cross the process
  // boundary through the tagged error record (ErrTag::kStall).
  ft::ScopedFaults faults("stall@rank=0,ms=750");
  ScopedProgressTimeout budget(0.15);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_k(2, [](Comm& c) {
      if (c.rank() == 0) {
        const std::array<double, 4> d{1.0, 2.0, 3.0, 4.0};
        c.send(1, /*tag=*/3, std::span<const double>(d)); // wedged at entry
      } else {
        auto h = c.irecv(0, 3);
        auto x = c.wait<double>(h); // the wait that must not hang
        (void)x;
      }
    });
    FAIL() << "expected ft::StallError";
  } catch (const ft::StallError& e) {
    EXPECT_NE(std::string(e.what()).find("no progress"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(t0), 10.0);
}

TEST_P(ChaosTransport, SlowRankDegradesGracefullyNeverErrors) {
  // A straggler is not a hang: per-op delays well inside the progress
  // budget must degrade throughput only — every collective still
  // completes with correct values and nothing throws.
  ft::ScopedFaults faults("slow_rank@rank=1,ms=2,count=64");
  ScopedProgressTimeout budget(5.0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(run_k(2, [](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      const double s = c.allreduce(1.0, ReduceOp::kSum);
      if (s != 2.0)
        throw std::runtime_error("allreduce corrupted under straggle");
    }
  }));
  EXPECT_LT(seconds_since(t0), 10.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosTransport,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kShm),
                         [](const auto& info) {
                           return std::string(transport_name(info.param));
                         });

TEST(ChaosShm, DroppedDoorbellsRecoverViaBoundedParkSlices) {
  // The sender's condvar doorbell is dropped for every message; parked
  // receivers must recover through the bounded park slices (<= 50 ms
  // re-check ceiling) and still deliver every payload intact — a lost
  // wakeup degrades latency, never correctness, and needs no progress
  // budget to survive.
  ft::ScopedFaults faults("drop_doorbell@rank=0,count=8");
  const auto t0 = std::chrono::steady_clock::now();
  run(2, TransportKind::kShm, [](Comm& c) {
    for (int t = 0; t < 8; ++t) {
      if (c.rank() == 0) {
        std::array<double, 4> d{};
        d.fill(static_cast<double>(t));
        c.send(1, t, std::span<const double>(d));
      } else {
        auto d = c.recv<double>(0, t);
        if (d != std::vector<double>(4, static_cast<double>(t)))
          throw std::runtime_error("payload corrupted across lost doorbell");
      }
    }
  });
  // 8 lost doorbells x one 50 ms park ceiling each, plus slack.
  EXPECT_LT(seconds_since(t0), 10.0);
}

// --- serve liveness: deadlines, shedding, drain -----------------------------

pipeline::PipelineOptions chaos_options() {
  pipeline::PipelineOptions opt;
  opt.lattice = 16;
  opt.superlattice = 1;
  opt.relax_steps = 50;
  opt.xs_steps = 30;
  opt.record_every = 5;
  return opt;
}

Request chaos_request(int tenant, long id, bool dark = true) {
  Request req;
  req.tenant = tenant;
  req.id = id;
  req.dark = dark;
  req.opt = chaos_options();
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

TEST(ChaosServe, StalledSchedulerStillReapsDeadlineAndKeepsCheckpoint) {
  // A stall injected into the scheduler round (any-rank entry, matched by
  // the scheduler's rank-agnostic hook) wedges it for 400 ms while the
  // request's 100 ms deadline expires. The reap must fire on the next
  // boundary: typed kDeadline outcome, checkpoint KEPT, and a resubmit of
  // the same id resumes and completes.
  obs::Registry::global().reset();
  namespace fs = std::filesystem;
  // Per-process: ctest runs this case and the sanitizer aggregates of this
  // binary at the same time, in one working directory.
  const std::string dir = "test_chaos_deadline_ckpt." + std::to_string(::getpid());
  fs::remove_all(dir);
  ServerOptions sopt;
  sopt.checkpoint_dir = dir;
  sopt.checkpoint_every = 5;
  Server server(sopt, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  {
    ft::ScopedFaults faults("stall@ms=400,count=2");
    server.start();
    Request req = chaos_request(0, 1);
    req.deadline_ms = 100.0;
    ASSERT_TRUE(server.submit(req).accepted);
    auto out = server.wait(1);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.reject, Reject::kDeadline);
    EXPECT_NE(out.error.find("deadline"), std::string::npos) << out.error;
  }
  EXPECT_LT(seconds_since(t0), 30.0);
  EXPECT_TRUE(fs::exists(dir + "/session-1.ckpt"));
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("serve.deadline.hits").value(), 1u);
  EXPECT_EQ(reg.counter("serve.deadline.hits.t0").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.deadline").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.deadline.t0").value(), 1u);

  // Resubmit-to-resume: same id, no deadline, faults disarmed.
  ASSERT_TRUE(server.submit(chaos_request(0, 1)).accepted);
  auto out = server.wait(1);
  EXPECT_TRUE(out.ok) << out.error;
  server.stop();
  // Terminal success retires the checkpoint.
  EXPECT_FALSE(fs::exists(dir + "/session-1.ckpt"));
  fs::remove_all(dir);
}

TEST(ChaosServe, RequestExpiredWhileQueuedIsReapedBeforeActivation) {
  // Submitted against a stopped scheduler, the deadline lapses in the
  // queue; activation must reap it before building stages 1-2 for
  // nothing, with the typed queued-deadline message.
  obs::Registry::global().reset();
  Server server({}, nullptr);
  Request req = chaos_request(1, 7);
  req.deadline_ms = 1.0;
  ASSERT_TRUE(server.submit(req).accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.start();
  auto out = server.wait(7);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.reject, Reject::kDeadline);
  EXPECT_NE(out.error.find("while queued"), std::string::npos) << out.error;
  server.stop();
  EXPECT_EQ(obs::Registry::global().counter("serve.deadline.hits.t1").value(),
            1u);
}

TEST(ChaosServe, OverloadShedsWithTypedRejectPastWatermark) {
  // Load shedding is admission-time and p95-driven. The queue-wait
  // histogram is seeded directly (deterministic, no scheduler racing) and
  // the server is never started, so the backlog condition holds: the
  // first submit is admitted (an empty queue never sheds), the second
  // meets p95 >> watermark and is rejected with kOverload.
  obs::Registry::global().reset();
  auto& reg = obs::Registry::global();
  for (int i = 0; i < 100; ++i)
    reg.histogram("serve.queue.wait_seconds").observe(1.0); // p95 ~ 1 s
  ServerOptions sopt;
  sopt.shed_watermark_ms = 100.0;
  Server server(sopt, nullptr);
  EXPECT_TRUE(server.submit(chaos_request(0, 1)).accepted);
  const auto t = server.submit(chaos_request(2, 2));
  EXPECT_FALSE(t.accepted);
  EXPECT_EQ(t.reason, Reject::kOverload);
  EXPECT_STREQ(reject_name(t.reason), "overload");
  EXPECT_EQ(reg.counter("serve.shed").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.overload").value(), 1u);
  EXPECT_EQ(reg.counter("serve.rejected.overload.t2").value(), 1u);
  EXPECT_EQ(reg.counter("serve.requests.rejected").value(), 1u);
}

TEST(ChaosServe, DrainUnderStragglersCheckpointsAndResumesBitIdentical) {
  // The in-process half of the SIGTERM protocol: drain() under injected
  // scheduler straggle must close admission, reap every scenario with
  // kStopped (checkpoints kept), and return promptly; a second server on
  // the same checkpoint dir resumes the load to results bit-identical to
  // dedicated uninterrupted runs.
  obs::Registry::global().reset();
  namespace fs = std::filesystem;
  const std::string dir = "test_chaos_drain_ckpt." + std::to_string(::getpid());
  fs::remove_all(dir);
  const auto ref_a = pipeline::run_pipeline(chaos_options(), /*dark=*/true);
  const auto ref_b = pipeline::run_pipeline(chaos_options(), /*dark=*/false);

  ServerOptions sopt;
  sopt.checkpoint_dir = dir;
  sopt.checkpoint_every = 5;
  {
    // 50 ms per scheduler round: the sessions are reliably mid-flight
    // when the drain lands, whatever the host's speed.
    ft::ScopedFaults faults("slow_rank@ms=50,count=100000");
    Server server(sopt, nullptr);
    server.start();
    ASSERT_TRUE(server.submit(chaos_request(0, 1, /*dark=*/true)).accepted);
    ASSERT_TRUE(server.submit(chaos_request(1, 2, /*dark=*/false)).accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto t0 = std::chrono::steady_clock::now();
    server.drain();
    EXPECT_LT(seconds_since(t0), 30.0);
    for (long id : {1L, 2L}) {
      auto out = server.wait(id);
      EXPECT_FALSE(out.ok);
      EXPECT_EQ(out.reject, Reject::kStopped) << out.error;
    }
    // Admission stays closed after the drain.
    EXPECT_EQ(server.submit(chaos_request(0, 3)).reason, Reject::kStopped);
    server.stop();
  }
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("serve.drained").value(), 2u);
  EXPECT_EQ(reg.histogram("serve.drain.seconds").count(), 1u);

  Server resumed(sopt, nullptr);
  resumed.start();
  ASSERT_TRUE(resumed.submit(chaos_request(0, 1, /*dark=*/true)).accepted);
  ASSERT_TRUE(resumed.submit(chaos_request(1, 2, /*dark=*/false)).accepted);
  auto out1 = resumed.wait(1);
  auto out2 = resumed.wait(2);
  ASSERT_TRUE(out1.ok) << out1.error;
  ASSERT_TRUE(out2.ok) << out2.error;
  expect_bitwise_equal(out1.result, ref_a);
  expect_bitwise_equal(out2.result, ref_b);
  resumed.stop();
  fs::remove_all(dir);
}

} // namespace
