#include "mlmd/par/transport.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mlmd::par {

double Transport::mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::byte> CommHandle::wait() {
  if (!st_) throw std::logic_error("CommHandle::wait: empty handle");
  if (!st_->completed) {
    // The post -> wait window is the comm time hidden behind compute;
    // blocking from here on is ordinary wait time, accounted by the
    // underlying op itself.
    const double overlap = Transport::mono_seconds() - st_->posted_at;
    if (st_->complete) st_->result = st_->complete(*st_);
    // Completion side effects run exactly once; an exception above (e.g.
    // abort poisoning) leaves the handle incomplete so the leak counters
    // reflect the truncated run.
    st_->complete = nullptr;
    st_->completed = true;
    st_->staged.clear();
    if (st_->owner) st_->owner->note_handle(st_->rank, true, overlap);
  }
  return std::move(st_->result);
}

void Transport::note_handle(int /*rank*/, bool completed,
                            double overlap_seconds) {
  auto& reg = obs::Registry::global();
  static auto& posted = reg.counter("simcomm.handles.posted");
  static auto& done = reg.counter("simcomm.handles.completed");
  static auto& overlap = reg.histogram("simcomm.overlap.seconds");
  if (completed) {
    done.add(1);
    overlap.observe(overlap_seconds);
  } else {
    posted.add(1);
  }
}

CommHandle Transport::make_completed(int rank) {
  auto st = std::make_shared<CommHandle::State>();
  st->owner = this;
  st->rank = rank;
  st->posted_at = mono_seconds();
  note_handle(rank, false, 0.0);
  // Already complete: the op finished at post (eager send). Record the
  // completion immediately so posted == completed holds without a wait().
  st->completed = true;
  note_handle(rank, true, 0.0);
  return CommHandle(std::move(st));
}

CommHandle Transport::make_deferred(
    int rank, std::vector<std::byte> staged,
    std::function<std::vector<std::byte>(CommHandle::State&)> complete) {
  auto st = std::make_shared<CommHandle::State>();
  st->owner = this;
  st->rank = rank;
  st->posted_at = mono_seconds();
  st->staged = std::move(staged);
  st->complete = std::move(complete);
  note_handle(rank, false, 0.0);
  return CommHandle(std::move(st));
}

CommHandle Transport::isend(int src, int dst, int tag,
                            std::span<const std::byte> payload) {
  // Both backends buffer sends (mailbox / ring), so posting eagerly is
  // already asynchronous with respect to the receiver: the payload is in
  // flight when the handle returns.
  send(src, dst, tag, payload);
  return make_completed(src);
}

CommHandle Transport::irecv(int dst, int src, int tag) {
  return make_deferred(dst, {}, [this, dst, src, tag](CommHandle::State&) {
    return recv(dst, src, tag);
  });
}

CommHandle Transport::iexchange(int rank, std::span<const std::byte> contrib,
                                int root, bool to_all, const char* op) {
  // Generic fallback: stage the contribution at post (the caller's span
  // may dangle by wait time) and run the whole collective at wait().
  // Backends with split-phase collectives override to deposit at post.
  std::vector<std::byte> staged(contrib.begin(), contrib.end());
  return make_deferred(rank, std::move(staged),
                       [this, rank, root, to_all, op](CommHandle::State& st) {
                         return exchange(rank, st.staged, root, to_all, op);
                       });
}

void Transport::account_obs(const char* op, std::size_t bytes) {
  // Fast path: linear scan over the (tiny, append-only) cell table. Cells
  // are published with release order after both counter handles are set,
  // so an acquire load of the count makes every cell at index < n fully
  // visible — no lock, no heap string, no registry lookup per comm call.
  const int n = n_op_cells_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const OpCell& c = op_cells_[static_cast<std::size_t>(i)];
    // `op` is contractually a string literal, but distinct literals with
    // equal spellings may have distinct addresses across TUs; fall back
    // to a content compare on pointer mismatch.
    if (c.op == op || std::strcmp(c.op, op) == 0) {
      c.calls->add(1);
      c.bytes->add(bytes);
      return;
    }
  }
  // Slow path (first call per op per transport): register the counters.
  std::lock_guard lk(op_mu_);
  // Another rank may have registered while we waited for the lock.
  const int cur = n_op_cells_.load(std::memory_order_acquire);
  for (int i = 0; i < cur; ++i) {
    const OpCell& c = op_cells_[static_cast<std::size_t>(i)];
    if (c.op == op || std::strcmp(c.op, op) == 0) {
      c.calls->add(1);
      c.bytes->add(bytes);
      return;
    }
  }
  if (cur >= kMaxOps)
    throw std::logic_error("SimComm: op cell table full (unknown op name?)");
  auto& reg = obs::Registry::global();
  OpCell& cell = op_cells_[static_cast<std::size_t>(cur)];
  cell.op = op;
  cell.calls = &reg.counter(std::string("simcomm.") + op + ".calls");
  cell.bytes = &reg.counter(std::string("simcomm.") + op + ".bytes");
  n_op_cells_.store(cur + 1, std::memory_order_release);
  cell.calls->add(1);
  cell.bytes->add(bytes);
}

RunStats Transport::run_stats() const {
  RunStats out;
  static_cast<TrafficStats&>(out) = stats();
  out.ranks.reserve(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) out.ranks.push_back(rank_traffic(r));
  return out;
}

void Transport::account_wait_obs(double seconds) {
  static auto& h = obs::Registry::global().histogram("simcomm.wait.seconds");
  h.observe(seconds);
}

TransportKind parse_transport(const std::string& name) {
  for (const auto& [spelling, kind] : kTransportChoices)
    if (name == spelling) return kind;
  throw std::invalid_argument("unknown transport '" + name +
                              "' (expected inproc|shm)");
}

const char* transport_name(TransportKind kind) {
  return kind == TransportKind::kShm ? "shm" : "inproc";
}

namespace {

TransportKind env_default_transport() {
  if (const char* e = std::getenv("MLMD_TRANSPORT"); e && *e)
    return parse_transport(e);
  return TransportKind::kInproc;
}

TransportKind& default_transport_slot() {
  static TransportKind kind = env_default_transport();
  return kind;
}

} // namespace

TransportKind default_transport() { return default_transport_slot(); }

void set_default_transport(TransportKind kind) {
  default_transport_slot() = kind;
}

namespace {

double env_progress_timeout() {
  if (const char* e = std::getenv("MLMD_COMM_TIMEOUT_MS"); e && *e) {
    const std::string value(e);
    std::size_t used = 0;
    double ms = 0.0;
    try {
      ms = std::stod(value, &used);
    } catch (...) {
      used = 0;
    }
    if (used != value.size())
      throw std::invalid_argument("MLMD_COMM_TIMEOUT_MS: bad value '" + value +
                                  "' (expected milliseconds)");
    return ms * 1e-3;
  }
  return 0.0;
}

double& progress_timeout_slot() {
  static double seconds = env_progress_timeout();
  return seconds;
}

} // namespace

double progress_timeout() { return progress_timeout_slot(); }

void set_progress_timeout(double seconds) {
  progress_timeout_slot() = seconds;
}

} // namespace mlmd::par
