#include "mlmd/par/simcomm.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"

namespace mlmd::par {
namespace detail {

// Wait/overlap accounting uses the shared Transport::mono_seconds clock.

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

  {
    std::lock_guard sg(stats_mu_);
    stats_.collective_ops += 1;
    stats_.collective_bytes += contrib.size();
  }

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
    // Reuse a retired message buffer (recv_into recycles them) so the
    // steady-state send -> recv_into loop performs zero heap allocations.
    std::vector<std::byte> buf;
    if (!pool_.empty()) {
      buf = std::move(pool_.back());
      pool_.pop_back();
    }
    buf.assign(payload.begin(), payload.end());
    mailboxes_[{src, dst, tag}].push_back(std::move(buf));
  }
  {
    std::lock_guard sg(stats_mu_);
    stats_.messages += 1;
    stats_.p2p_bytes += payload.size();
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

void GroupState::recv_into(int dst, int src, int tag,
                           std::vector<std::byte>& out) {
  auto payload = recv(dst, src, tag);
  out.assign(payload.begin(), payload.end());
  // Recycle the message buffer for a later send (capacity kept, bounded
  // so a burst cannot pin memory forever).
  std::lock_guard lk(mu_);
  if (pool_.size() < 64) {
    payload.clear();
    pool_.push_back(std::move(payload));
  }
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
      rank, {},
      [this, rank, root, to_all, op, gen, nbytes](CommHandle::State&) {
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

          {
            std::lock_guard sg(stats_mu_);
            stats_.collective_ops += 1;
            stats_.collective_bytes += nbytes;
          }

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
  Transport::note_handle(rank, completed, overlap_seconds);
}

TrafficStats GroupState::stats() const {
  std::lock_guard sg(stats_mu_);
  return stats_;
}

RankTraffic GroupState::rank_traffic(int rank) const {
  if (rank < 0 || rank >= nranks_)
    throw std::out_of_range("SimComm::rank_traffic: bad rank");
  std::lock_guard sg(stats_mu_);
  return rank_traffic_[static_cast<std::size_t>(rank)];
}

void GroupState::reset_stats() {
  std::lock_guard sg(stats_mu_);
  stats_ = {};
  for (auto& rt : rank_traffic_) rt = {};
}

} // namespace detail

/// Threaded (in-process) run: the reference implementation the shm
/// backend must be indistinguishable from.
static RunStats run_inproc(int nranks,
                           const std::function<void(Comm&)>& body) {
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

RunStats run(int nranks, TransportKind kind,
             const std::function<void(Comm&)>& body) {
  switch (kind) {
    case TransportKind::kShm: return detail::run_shm(nranks, body);
    case TransportKind::kInproc: break;
  }
  return run_inproc(nranks, body);
}

RunStats run(int nranks, const std::function<void(Comm&)>& body) {
  return run(nranks, default_transport(), body);
}

} // namespace mlmd::par
