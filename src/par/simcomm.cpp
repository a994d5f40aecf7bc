#include "mlmd/par/simcomm.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"

namespace mlmd::par {

std::vector<std::byte> CommHandle::wait() {
  if (!st_) throw std::logic_error("CommHandle::wait: empty handle");
  if (!st_->completed) {
    // The post -> wait window is the comm time hidden behind compute;
    // blocking from here on is ordinary wait time, accounted by the
    // underlying op itself.
    const double overlap = detail::GroupState::mono_seconds() - st_->posted_at;
    if (st_->complete) st_->result = st_->complete();
    // Completion side effects run exactly once; an exception above (e.g.
    // abort poisoning) leaves the handle incomplete so the leak counters
    // reflect the truncated run.
    st_->complete = nullptr;
    st_->completed = true;
    if (st_->owner) st_->owner->note_handle(st_->rank, true, overlap);
  }
  return std::move(st_->result);
}

namespace detail {

namespace {

obs::Counter& stalls_counter() {
  static auto& c = obs::Registry::global().counter("simcomm.stalls.detected");
  return c;
}

/// Comm-entry fault hooks: the injected rank crash (hook_comm), plus the
/// liveness-chaos delays (stall / slow_rank) which are slept HERE, before
/// any group state is touched and with no locks held — to the peers this
/// rank is simply late, which is exactly what the progress timeout must
/// detect.
void inject_comm_faults(int rank) {
  ft::hook_comm(rank);
  if (const double d = ft::hook_delay(rank); d > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

} // namespace

double GroupState::mono_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

GroupState::GroupState(int nranks)
    : nranks_(nranks), contrib_(static_cast<std::size_t>(nranks > 0 ? nranks : 0)),
      deposited_(static_cast<std::size_t>(nranks > 0 ? nranks : 0), 0),
      rank_traffic_(static_cast<std::size_t>(nranks > 0 ? nranks : 0)) {
  if (nranks <= 0) throw std::invalid_argument("SimComm: nranks must be > 0");
}

void GroupState::account(int rank, const char* op, std::size_t bytes) {
  {
    std::lock_guard sg(stats_mu_);
    auto& e = rank_traffic_[static_cast<std::size_t>(rank)].ops[op];
    e.calls += 1;
    e.bytes += bytes;
  }
  account_obs(op, bytes);
}

void GroupState::account_wait(int rank, double seconds) {
  {
    std::lock_guard sg(stats_mu_);
    rank_traffic_[static_cast<std::size_t>(rank)].wait_seconds += seconds;
  }
  account_wait_obs(seconds);
}

void GroupState::throw_if_aborted_locked() const {
  if (aborted_)
    throw std::runtime_error("SimComm aborted: " + abort_reason_);
}

void GroupState::poison_locked(const std::string& reason) {
  if (!aborted_) {
    aborted_ = true;
    abort_reason_ = reason;
  }
  cv_.notify_all();
}

void GroupState::stall_locked(const char* op, double budget) {
  stalls_counter().add(1);
  const std::string what = std::string("no progress in ") + op + " for " +
                           std::to_string(budget) +
                           " s (peer stalled?)";
  poison_locked(what);
  throw ft::StallError("SimComm stall: " + what);
}

void GroupState::abort(const std::string& reason) {
  std::lock_guard lk(mu_);
  poison_locked(reason);
}

void GroupState::barrier(int rank) {
  inject_comm_faults(rank); // injected rank death / stall (DESIGN.md Sec. 10)
  double waited = 0.0;
  {
    std::unique_lock lk(mu_);
    throw_if_aborted_locked();
    const std::uint64_t gen = barrier_generation_;
    if (++barrier_arrived_ == nranks_) {
      barrier_arrived_ = 0;
      ++barrier_generation_;
      cv_.notify_all();
    } else {
      waited = wait_progress(
          lk, [&] { return aborted_ || barrier_generation_ != gen; },
          "barrier");
      throw_if_aborted_locked();
    }
  }
  account(rank, "barrier", 0);
  if (waited > 0.0) account_wait(rank, waited);
}

std::vector<std::byte> GroupState::exchange(int rank,
                                            std::span<const std::byte> contrib,
                                            int root, bool to_all,
                                            const char* op) {
  // Fault hooks fire before any collective state is touched: an injected
  // crash unwinds this rank and poisons the group like any rank error.
  inject_comm_faults(rank);
  const auto r = static_cast<std::size_t>(rank);
  double waited = 0.0;
  std::unique_lock lk(mu_);
  throw_if_aborted_locked();
  // Wait until this rank's slot from the previous collective has been
  // released (all ranks consumed it). deposited_ is the explicit signal;
  // a zero-byte contribution occupies the slot exactly like any other.
  if (deposited_[r]) {
    waited += wait_progress(lk, [&] { return aborted_ || !deposited_[r]; }, op);
  }
  throw_if_aborted_locked();

  deposited_[r] = 1;
  contrib_[r].assign(contrib.begin(), contrib.end());
  // Injected in-transit corruption hits the deposited copy, never the
  // caller's buffer (the wire analogue of a link bit-flip).
  ft::hook_payload(rank, std::span<std::byte>(contrib_[r]));
  const std::uint64_t gen = collective_generation_;
  if (++contrib_count_ == nranks_) {
    assembled_.clear();
    for (auto& c : contrib_) {
      assembled_.insert(assembled_.end(), c.begin(), c.end());
    }
    consumed_count_ = 0;
    ++collective_generation_;
    cv_.notify_all();
  } else {
    waited += wait_progress(
        lk, [&] { return aborted_ || collective_generation_ != gen; }, op);
    throw_if_aborted_locked();
  }

  std::vector<std::byte> result;
  if (to_all || rank == root) result = assembled_;

  if (++consumed_count_ == nranks_) {
    for (auto& c : contrib_) c.clear();
    for (auto& d : deposited_) d = 0;
    contrib_count_ = 0;
    cv_.notify_all(); // wake ranks waiting to start the next collective
  }
  lk.unlock();
  account(rank, op, contrib.size());
  if (waited > 0.0) account_wait(rank, waited);
  return result;
}

void GroupState::send(int src, int dst, int tag, std::span<const std::byte> payload) {
  inject_comm_faults(src);
  if (dst < 0 || dst >= nranks_) throw std::out_of_range("SimComm::send: bad rank");
  if (dst == src)
    throw std::invalid_argument(
        "SimComm::send: self-send can never match a blocking peer recv");
  {
    std::lock_guard lk(mu_);
    throw_if_aborted_locked();
    mailboxes_[{src, dst, tag}].emplace_back(payload.begin(), payload.end());
  }
  account(src, "send", payload.size());
  cv_.notify_all();
}

std::vector<std::byte> GroupState::recv(int dst, int src, int tag) {
  inject_comm_faults(dst);
  // Validate eagerly (mirroring send): a bad source rank would otherwise
  // block forever on a message that can never arrive.
  if (src < 0 || src >= nranks_) throw std::out_of_range("SimComm::recv: bad rank");
  if (src == dst)
    throw std::invalid_argument(
        "SimComm::recv: self-receive can never match a peer send");
  std::unique_lock lk(mu_);
  throw_if_aborted_locked();
  const Key key{src, dst, tag};
  const double waited = wait_progress(
      lk,
      [&] {
        if (aborted_) return true;
        auto it = mailboxes_.find(key);
        return it != mailboxes_.end() && !it->second.empty();
      },
      "recv");
  throw_if_aborted_locked();
  auto& queue = mailboxes_[key];
  std::vector<std::byte> payload = std::move(queue.front());
  queue.erase(queue.begin());
  lk.unlock();
  account(dst, "recv", payload.size());
  if (waited > 0.0) account_wait(dst, waited);
  return payload;
}

CommHandle GroupState::iexchange(int rank, std::span<const std::byte> contrib,
                                 int root, bool to_all, const char* op) {
  // Post phase: everything exchange() does up to (and including) this
  // rank's deposit — so peers can assemble and complete the collective
  // while this rank computes. The closure below is exchange()'s back
  // half, verbatim, so op order and accounting are identical.
  inject_comm_faults(rank);
  const auto r = static_cast<std::size_t>(rank);
  double waited = 0.0;
  std::uint64_t gen = 0;
  {
    std::unique_lock lk(mu_);
    throw_if_aborted_locked();
    if (deposited_[r]) {
      waited +=
          wait_progress(lk, [&] { return aborted_ || !deposited_[r]; }, op);
    }
    throw_if_aborted_locked();

    deposited_[r] = 1;
    contrib_[r].assign(contrib.begin(), contrib.end());
    ft::hook_payload(rank, std::span<std::byte>(contrib_[r]));
    // The captured generation can advance at most once before the wait
    // closure runs: the next round's deposits are gated on every rank
    // consuming this one, and this rank consumes only in wait().
    gen = collective_generation_;
    if (++contrib_count_ == nranks_) {
      assembled_.clear();
      for (auto& c : contrib_) {
        assembled_.insert(assembled_.end(), c.begin(), c.end());
      }
      consumed_count_ = 0;
      ++collective_generation_;
      cv_.notify_all();
    }
  }
  if (waited > 0.0) account_wait(rank, waited);

  const std::size_t nbytes = contrib.size();
  return make_deferred(
      rank, [this, rank, root, to_all, op, gen, nbytes] {
        double w = 0.0;
        std::vector<std::byte> result;
        {
          std::unique_lock lk(mu_);
          if (!aborted_ && collective_generation_ == gen) {
            w += wait_progress(
                lk, [&] { return aborted_ || collective_generation_ != gen; },
                op);
          }
          throw_if_aborted_locked();

          if (to_all || rank == root) result = assembled_;

          if (++consumed_count_ == nranks_) {
            for (auto& c : contrib_) c.clear();
            for (auto& d : deposited_) d = 0;
            contrib_count_ = 0;
            cv_.notify_all();
          }
        }
        account(rank, op, nbytes);
        if (w > 0.0) account_wait(rank, w);
        return result;
      });
}

void GroupState::note_handle(int rank, bool completed, double overlap_seconds) {
  {
    std::lock_guard sg(stats_mu_);
    auto& rt = rank_traffic_[static_cast<std::size_t>(rank)];
    if (completed) {
      rt.handles_completed += 1;
      rt.overlap_seconds += overlap_seconds;
    } else {
      rt.handles_posted += 1;
    }
  }
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

CommHandle GroupState::make_completed(int rank) {
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

CommHandle GroupState::make_deferred(
    int rank, std::function<std::vector<std::byte>()> complete) {
  auto st = std::make_shared<CommHandle::State>();
  st->owner = this;
  st->rank = rank;
  st->posted_at = mono_seconds();
  st->complete = std::move(complete);
  note_handle(rank, false, 0.0);
  return CommHandle(std::move(st));
}

CommHandle GroupState::isend(int src, int dst, int tag,
                             std::span<const std::byte> payload) {
  // Sends are buffered in the receiver's mailbox, so posting eagerly is
  // already asynchronous with respect to the receiver: the payload is in
  // flight when the handle returns.
  send(src, dst, tag, payload);
  return make_completed(src);
}

CommHandle GroupState::irecv(int dst, int src, int tag) {
  return make_deferred(dst, [this, dst, src, tag] {
    return recv(dst, src, tag);
  });
}

void GroupState::account_obs(const char* op, std::size_t bytes) {
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
  // Slow path (first call per op per group): register the counters.
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

void GroupState::account_wait_obs(double seconds) {
  static auto& h = obs::Registry::global().histogram("simcomm.wait.seconds");
  h.observe(seconds);
}

RunStats GroupState::run_stats() const {
  RunStats out;
  {
    std::lock_guard sg(stats_mu_);
    out.ranks = rank_traffic_;
  }
  for (const RankTraffic& rt : out.ranks)
    for (const auto& [op, st] : rt.ops) {
      if (op == "send") {
        out.messages += st.calls;
        out.p2p_bytes += st.bytes;
      } else if (op != "barrier" && op != "recv") {
        out.collective_ops += st.calls;
        out.collective_bytes += st.bytes;
      }
    }
  return out;
}

} // namespace detail

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

RunStats run(int nranks, const std::function<void(Comm&)>& body) {
  auto state = std::make_shared<detail::GroupState>(nranks);

  std::vector<std::thread> threads;
  threads.reserve(nranks);
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r);
      try {
        body(comm);
      } catch (...) {
        // Recover the original message so the poison reason carries the
        // root cause: surviving ranks rethrow "SimComm aborted: rank N
        // threw: <what>" instead of an uninformative generic error.
        std::string what = "unknown exception";
        try {
          throw;
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        {
          std::lock_guard lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        // Poison the group so peers blocked in barrier/exchange/recv
        // unwind instead of hanging join() forever. Ranks that unwind
        // with the induced "SimComm aborted" error reach this handler
        // after first_error is already set, so the root cause wins (and
        // abort() keeps only the first reason).
        state->abort("rank " + std::to_string(r) + " threw: " + what);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return state->run_stats();
}

} // namespace mlmd::par
