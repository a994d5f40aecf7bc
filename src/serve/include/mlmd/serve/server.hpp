#pragma once
// The mlmd::serve scheduler (DESIGN.md Sec. 14): queue -> batcher ->
// Sessions -> ThreadPool. A single scheduler thread owns every active
// pipeline::Session and advances each by one stage-3 step per round,
// admitting queued requests up to max_inflight as slots free. Parallelism
// is per-step, inside the force kernels (the global par::ThreadPool the
// inference chunks fan out on): interleaving at step granularity keeps
// results bitwise-identical to dedicated runs while the batcher gives
// each pool launch every tenant's cells.
//
// Warm restart: with checkpoint_dir set, every session checkpoints to
// <dir>/session-<id>.ckpt (checkpoint_every steps); activating a request
// whose checkpoint file already exists resumes from it instead of
// rerunning stages 1-2. A daemon killed mid-load therefore resumes all
// in-flight scenarios on the next start, bit-identical (asserted by the
// warm-restart tests). kill_at_round deterministically SIGKILLs the
// process at a chosen scheduler round so tests exercise that path without
// timing races.

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mlmd/serve/batcher.hpp"
#include "mlmd/serve/queue.hpp"

namespace mlmd::serve {

/// Name -> shared model weights. The server owns registered models;
/// requests reference them by name, so one copy of the weights serves
/// every tenant and outlives every queued scenario.
class ModelRegistry {
 public:
  void add(std::string name, std::shared_ptr<const nnq::LatticeModel> m);
  /// nullptr when unknown.
  std::shared_ptr<const nnq::LatticeModel> get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const nnq::LatticeModel>,
           std::less<>>
      models_;
};

struct ServerOptions {
  std::size_t queue_capacity = 64;
  std::size_t tenant_quota = 0;  ///< queued+in-flight cap per tenant (0=off)
  std::size_t max_inflight = 8;  ///< concurrently active sessions
  std::size_t batch_max = 8;     ///< sessions per fused inference batch
  /// false: per-session force evaluation, bitwise the same results as
  /// batch_max = 1. Kept only because the benchmark harness
  /// (e2ebench/src/serve.cpp) assigns it.
  bool batch = true;
  bool verify_batching = false;  ///< memcmp batched vs unbatched forces
  std::string checkpoint_dir;    ///< non-empty: warm-restart checkpoints
  int checkpoint_every = 10;     ///< steps between session checkpoints
  long kill_at_round = 0;        ///< test hook: SIGKILL at round N (0=off)
  /// Deadline applied to requests that carry none (ms, <= 0 = infinite).
  double default_deadline_ms = 0.0;
  /// Load shedding (DESIGN.md Sec. 15): when > 0 and the queue is
  /// non-empty, submit() rejects with kOverload while the p95 queue wait
  /// exceeds this watermark (ms) — bounded staleness beats unbounded
  /// queueing under sustained overload.
  double shed_watermark_ms = 0.0;
  /// Test hook: raise(SIGTERM) at scheduler round N (0 = off), so drain
  /// tests exercise the real signal path without timing races.
  long term_at_round = 0;
};

/// Terminal state of one scenario. `reject` distinguishes the degraded
/// terminals from genuine failures: kDeadline (reaped at a step boundary,
/// checkpoint kept) and kStopped (drained at shutdown, checkpoint kept)
/// both leave ok == false but mean "resubmit to resume", not "broken".
struct Outcome {
  bool ok = false;
  Reject reject = Reject::kNone;
  std::string error;
  pipeline::PipelineResult result;
};

class Server {
 public:
  Server(ServerOptions opt, std::shared_ptr<ModelRegistry> models);
  ~Server(); ///< stop()s if still running

  void start();
  /// Stop accepting, drain everything already accepted, join.
  void stop();

  /// Graceful drain (the SIGTERM protocol, DESIGN.md Sec. 15): close
  /// admission, checkpoint every live session and reap it with
  /// Reject::kStopped (checkpoint KEPT), fail queued-but-inactive
  /// requests with kStopped too, and return when no scenario remains
  /// in flight. A restarted server resubmitting the same ids resumes the
  /// drained sessions bit-identically. Observes serve.drain.seconds.
  void drain();

  /// Admission-controlled submit; synchronous Ticket (see queue.hpp).
  Ticket submit(Request req);

  /// Block until scenario `id` reaches a terminal state. Unknown ids
  /// return an error Outcome immediately.
  Outcome wait(long id);
  /// Block until no queued or active scenarios remain.
  void wait_all();

 private:
  struct Active {
    long id = 0;
    int tenant = 0;
    std::unique_ptr<pipeline::Session> session;
    std::uint64_t t_submit_ns = 0;
    std::uint64_t deadline_ns = 0; ///< absolute mono ns; 0 = none
  };

  void scheduler_loop();
  bool activate(Request req);
  void complete(Active& a, Outcome out);
  /// serve.latency_seconds.t<tenant>, registered on the tenant's first
  /// completion and cached in latency_lanes_.
  obs::Histogram& latency_lane(int tenant);

  ServerOptions opt_;
  std::shared_ptr<ModelRegistry> models_;
  RequestQueue queue_;
  MicroBatcher batcher_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  ///< scheduler: work arrived / stop
  std::condition_variable cv_done_;  ///< waiters: an outcome landed
  std::map<long, Outcome> outcomes_;
  std::map<long, std::uint64_t> submitted_; ///< id -> submit mono ns
  std::vector<Active> active_;              ///< scheduler-thread only
  std::map<int, obs::Histogram*> latency_lanes_; ///< scheduler-thread only
  long pending_ = 0; ///< accepted, not yet terminal
  bool running_ = false;
  bool stopping_ = false;
  bool draining_ = false;
  std::thread thread_;
};

} // namespace mlmd::serve
