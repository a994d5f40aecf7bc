#pragma once
// Bounded multi-tenant admission queue (DESIGN.md Sec. 14.2): the front
// door of mlmd::serve. Admission control is explicit — a full queue or an
// over-quota tenant gets a reject-with-reason Ticket back immediately
// (backpressure the client can act on) instead of an unbounded buffer the
// process eventually dies under. Dequeue order is round-robin across
// tenants, so one tenant flooding the queue cannot starve the others:
// fairness is positional, quotas are volumetric.
//
// A tenant's quota counts queued + in-flight scenarios; the scheduler
// calls on_done() when a scenario completes (or fails) to release the
// slot. Every accept/reject/pop updates the serve.* obs instruments, with
// per-tenant queue-wait lanes (serve.queue.wait_seconds.t<k>), registered
// once when the tenant first appears.

#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "mlmd/mlmd/pipeline.hpp"

namespace mlmd::obs {
class Histogram;
} // namespace mlmd::obs

namespace mlmd::serve {

/// One pipeline scenario to run. Models are referenced by ModelRegistry
/// name (resolved at activation, so request structs stay light and every
/// tenant shares one copy of the weights); requests may instead carry the
/// shared_ptrs directly in `opt`.
struct Request {
  int tenant = 0;
  long id = 0;     ///< caller-chosen, unique per server; keys wait()
  bool dark = false;
  /// Per-request deadline in milliseconds, measured from submit()
  /// (DESIGN.md Sec. 15). <= 0 (the default) = infinite. Enforced
  /// cooperatively at Session::step() boundaries: an expired request is
  /// reaped with Reject::kDeadline and its last checkpoint is KEPT so
  /// the tenant can resubmit and resume where it was cut off.
  double deadline_ms = 0.0;
  pipeline::PipelineOptions opt;
  std::string gs_model, xs_model; ///< registry names; empty = use opt's
};

enum class Reject {
  kNone,        ///< accepted
  kQueueFull,   ///< queue at capacity — back off and retry
  kTenantQuota, ///< this tenant's queued+in-flight quota is exhausted
  kStopped,     ///< server is draining / shut down
  kBadRequest,  ///< structurally invalid (no lattice, neural w/o models)
  kDeadline,    ///< deadline expired; checkpoint kept, resubmit to resume
  kOverload,    ///< load-shed: p95 queue wait above the watermark
};
const char* reject_name(Reject r);

/// Publish one typed reject to the obs registry: the global
/// serve.requests.rejected roll-up, the per-reason
/// serve.rejected.<reason> counter, and the per-tenant lane
/// serve.rejected.<reason>.t<k> — so a dashboard can tell WHOSE requests
/// die and WHY (quota pressure vs. overload vs. deadlines).
void count_reject(Reject why, int tenant);

/// Admission answer, returned synchronously from push().
struct Ticket {
  bool accepted = false;
  Reject reason = Reject::kNone;
  long id = 0;
};

/// Thread-safe bounded queue. One mutex guards all state; push/pop are
/// O(log tenants).
class RequestQueue {
 public:
  /// `capacity` bounds total queued requests; `tenant_quota` bounds one
  /// tenant's queued + in-flight count (0 = unlimited).
  explicit RequestQueue(std::size_t capacity, std::size_t tenant_quota = 0);

  Ticket push(Request req);

  /// Round-robin across tenants with queued work. Returns false when
  /// empty. Popping moves the request from "queued" to "in-flight" for
  /// quota purposes; the caller must eventually on_done(tenant).
  bool pop(Request& out);

  /// Release one of `tenant`'s quota slots (scenario completed/failed).
  void on_done(int tenant);

  /// Reject all further pushes with kStopped. Queued requests still pop.
  void stop();

  std::size_t size() const;
  /// Queued + in-flight count for one tenant.
  std::size_t load(int tenant) const;

 private:
  struct Pending {
    Request req;
    std::uint64_t t_enqueue_ns;
  };
  struct Tenant {
    std::deque<Pending> fifo;
    std::size_t load = 0; ///< queued + in-flight
    obs::Histogram* wait_lane = nullptr; ///< serve.queue.wait_seconds.t<k>
  };

  const std::size_t capacity_;
  const std::size_t tenant_quota_;
  mutable std::mutex mu_;
  std::map<int, Tenant> tenants_;
  std::size_t queued_ = 0;
  int rr_last_ = -1; ///< tenant served by the previous pop
  bool stopped_ = false;
};

} // namespace mlmd::serve
