#include "mlmd/serve/queue.hpp"

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::serve {
namespace {

bool valid(const Request& r) {
  if (r.opt.lattice == 0 || r.opt.xs_steps < 0) return false;
  if (r.opt.backend == pipeline::ForceBackend::kNeural) {
    const bool named = !r.gs_model.empty() && !r.xs_model.empty();
    const bool owned = r.opt.gs_model && r.opt.xs_model;
    if (!named && !owned) return false;
  }
  return true;
}

} // namespace

const char* reject_name(Reject r) {
  switch (r) {
    case Reject::kNone: return "none";
    case Reject::kQueueFull: return "queue_full";
    case Reject::kTenantQuota: return "tenant_quota";
    case Reject::kStopped: return "stopped";
    case Reject::kBadRequest: return "bad_request";
    case Reject::kDeadline: return "deadline";
    case Reject::kOverload: return "overload";
  }
  return "?";
}

void count_reject(Reject why, int tenant) {
  auto& reg = obs::Registry::global();
  reg.counter("serve.requests.rejected").add(1);
  const std::string reason = reject_name(why);
  reg.counter("serve.rejected." + reason).add(1);
  reg.counter("serve.rejected." + reason + ".t" + std::to_string(tenant))
      .add(1);
}

RequestQueue::RequestQueue(std::size_t capacity, std::size_t tenant_quota)
    : capacity_(capacity), tenant_quota_(tenant_quota) {}

Ticket RequestQueue::push(Request req) {
  auto& reg = obs::Registry::global();
  static auto& accepted = reg.counter("serve.requests.accepted");
  const auto reject = [&](Reject why) {
    count_reject(why, req.tenant);
    return Ticket{false, why, req.id};
  };

  if (!valid(req)) return reject(Reject::kBadRequest);
  std::lock_guard lk(mu_);
  if (stopped_) return reject(Reject::kStopped);
  if (queued_ >= capacity_) return reject(Reject::kQueueFull);
  auto it = tenants_.find(req.tenant);
  if (it == tenants_.end()) {
    // First sight of this tenant: register its lane once, before the
    // entry exists, so pop() never finds a tenant without one.
    auto& lane = reg.histogram("serve.queue.wait_seconds.t" +
                               std::to_string(req.tenant));
    it = tenants_.emplace(req.tenant, Tenant{}).first;
    it->second.wait_lane = &lane;
  }
  Tenant& t = it->second;
  if (tenant_quota_ > 0 && t.load >= tenant_quota_)
    return reject(Reject::kTenantQuota);

  const long id = req.id;
  t.fifo.push_back({std::move(req), obs::mono_ns()});
  ++t.load;
  ++queued_;
  accepted.add(1);
  return Ticket{true, Reject::kNone, id};
}

bool RequestQueue::pop(Request& out) {
  Pending p;
  obs::Histogram* lane = nullptr;
  {
    std::lock_guard lk(mu_);
    if (queued_ == 0) return false;
    // Next tenant strictly after rr_last_ (wrapping) with queued work.
    auto it = tenants_.upper_bound(rr_last_);
    for (std::size_t scanned = 0; scanned <= tenants_.size(); ++scanned) {
      if (it == tenants_.end()) it = tenants_.begin();
      if (!it->second.fifo.empty()) break;
      ++it;
    }
    rr_last_ = it->first;
    lane = it->second.wait_lane;
    p = std::move(it->second.fifo.front());
    it->second.fifo.pop_front();
    --queued_; // load stays: the request is now in-flight
  }
  const double wait =
      static_cast<double>(obs::mono_ns() - p.t_enqueue_ns) * 1e-9;
  static auto& wait_all =
      obs::Registry::global().histogram("serve.queue.wait_seconds");
  wait_all.observe(wait);
  lane->observe(wait);
  out = std::move(p.req);
  return true;
}

void RequestQueue::on_done(int tenant) {
  std::lock_guard lk(mu_);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end() && it->second.load > 0) --it->second.load;
}

void RequestQueue::stop() {
  std::lock_guard lk(mu_);
  stopped_ = true;
}

std::size_t RequestQueue::size() const {
  std::lock_guard lk(mu_);
  return queued_;
}

std::size_t RequestQueue::load(int tenant) const {
  std::lock_guard lk(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.load;
}

} // namespace mlmd::serve
