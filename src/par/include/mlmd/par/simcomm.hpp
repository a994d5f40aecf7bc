#pragma once
// SimComm: a message-passing substrate standing in for MPI (DESIGN.md
// Sec. 1 and Sec. 11). Logical ranks run as real threads (the default
// in-process transport) or as forked worker processes (the shared-memory
// transport, shm_transport.cpp); collectives and point-to-point
// transfers move real bytes and are metered, so communication volume and
// message counts measured here match what an MPI build would put on the
// wire.
//
// The communicator API deliberately mirrors the MPI subset MLMD uses:
// barrier, broadcast, allreduce, gather/allgather(v), blocking send/recv,
// and nonblocking isend/irecv/iallgatherv (halo exchange and overlapped
// collectives). Rank count is bounded by thread limits (hundreds); the
// paper-scale sweeps (P up to 120,000) use mlmd::perf's calibrated
// machine model instead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mlmd/obs/trace.hpp"
#include "mlmd/par/transport.hpp"

namespace mlmd::par {

/// Reduction operators for allreduce/reduce.
enum class ReduceOp { kSum, kMin, kMax };

class Comm;

namespace detail {

/// In-process transport: shared state for one group of ranks running as
/// threads. Owns mailboxes, the sense-reversing barrier, and collective
/// scratch space. The default (and TSan-checked) Transport backend.
class GroupState : public Transport {
public:
  explicit GroupState(int nranks);

  int size() const override { return nranks_; }

  void barrier(int rank) override;
  std::vector<std::byte> exchange(int rank, std::span<const std::byte> contrib,
                                  int root, bool to_all,
                                  const char* op) override;

  void send(int src, int dst, int tag,
            std::span<const std::byte> payload) override;
  std::vector<std::byte> recv(int dst, int src, int tag) override;
  void recv_into(int dst, int src, int tag,
                 std::vector<std::byte>& out) override;

  /// Split-phase collective: the post deposits this rank's contribution
  /// (so the collective can assemble while this rank computes); wait()
  /// blocks for the assembled result. Identical protocol, op order, and
  /// accounting as exchange().
  CommHandle iexchange(int rank, std::span<const std::byte> contrib, int root,
                       bool to_all, const char* op) override;

  void abort(const std::string& reason) override;

  TrafficStats stats() const override;
  RankTraffic rank_traffic(int rank) const override;
  void reset_stats() override;

protected:
  void note_handle(int rank, bool completed, double overlap_seconds) override;

private:
  /// Account one op entry for `rank` and publish to the obs registry.
  void account(int rank, const char* op, std::size_t bytes);
  /// Account wall time `rank` just spent blocked.
  void account_wait(int rank, double seconds);
  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  /// Throws if the group has been poisoned. Caller must hold mu_.
  void throw_if_aborted_locked() const;

  /// Poison the group in place (caller already holds mu_; abort() takes
  /// the lock itself) and wake every parked waiter.
  void poison_locked(const std::string& reason);
  /// Record a stall detection, poison the group, and throw ft::StallError
  /// (defined in simcomm.cpp so this header stays ft-free). Caller holds
  /// mu_.
  [[noreturn]] void stall_locked(const char* op, double budget);

  /// Progress-bounded condvar wait (DESIGN.md Sec. 15): the indefinite
  /// cv_.wait(lk, pred) of every blocking primitive, plus an optional
  /// liveness deadline. With no progress_timeout() armed this IS
  /// cv_.wait(lk, pred); with one armed, the wait is sliced (<= 50 ms per
  /// slice, matching the shm park ceiling) and expiry poisons the group
  /// and throws ft::StallError. Returns the seconds spent blocked, for
  /// the caller's wait accounting. Caller holds lk on mu_.
  template <class Pred>
  double wait_progress(std::unique_lock<std::mutex>& lk, Pred&& pred,
                       const char* op) {
    const double budget = par::progress_timeout();
    const double w0 = mono_seconds();
    if (budget <= 0.0) {
      cv_.wait(lk, std::forward<Pred>(pred));
      return mono_seconds() - w0;
    }
    while (!pred()) {
      const double left = budget - (mono_seconds() - w0);
      if (left <= 0.0) stall_locked(op, budget);
      cv_.wait_for(lk,
                   std::chrono::duration<double>(std::min(left, 0.05)));
    }
    return mono_seconds() - w0;
  }

  const int nranks_;

  std::mutex mu_;
  std::condition_variable cv_;

  // Error poisoning: once set, every blocking entry point throws.
  bool aborted_ = false;
  std::string abort_reason_;

  // Sense-reversing barrier.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Collective scratch: contributions keyed by rank, plus a generation
  // counter so back-to-back collectives do not interfere. deposited_ is
  // the explicit "this rank's slot is occupied for the current round"
  // signal — contrib_[r].empty() cannot distinguish a deposited
  // zero-byte contribution (non-root broadcast) from a free slot.
  std::vector<std::vector<std::byte>> contrib_;
  std::vector<char> deposited_;
  int contrib_count_ = 0;
  int consumed_count_ = 0;
  std::uint64_t collective_generation_ = 0;
  std::vector<std::byte> assembled_;

  std::map<Key, std::vector<std::vector<std::byte>>> mailboxes_;
  // Retired message buffers recycled by send() (capacity kept), so the
  // steady-state send -> recv_into loop allocates nothing. Guarded by mu_.
  std::vector<std::vector<std::byte>> pool_;

  mutable std::mutex stats_mu_;
  TrafficStats stats_;
  std::vector<RankTraffic> rank_traffic_;
};

/// Shared-memory transport entry point (shm_transport.cpp): forks one
/// worker process per rank (the caller hosts rank 0) and runs `body`
/// against the mmap'd transport. Same contract as the threaded run().
RunStats run_shm(int nranks, const std::function<void(Comm&)>& body);

/// Combine one remote contribution into the running reduction. NaN
/// propagates through kMin/kMax as well as kSum: a plain `b < a ? b : a`
/// comparison is false for NaN, so a poisoned contribution (e.g. ft's
/// nan_force injection) would silently lose to any finite value and the
/// downstream sentinel would never fire.
template <class T>
inline T reduce_combine(T a, T b, ReduceOp op) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(a)) return a;
    if (std::isnan(b)) return b;
  }
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return b > a ? b : a;
  }
  return a;
}

} // namespace detail

/// Per-rank communicator handle (the `MPI_Comm` + rank analogue). Holds
/// a backend-neutral Transport; everything above this line is unaware of
/// whether ranks are threads or processes.
class Comm {
public:
  Comm(std::shared_ptr<Transport> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return state_->size(); }

  void barrier() {
    obs::ObsScope span("comm.barrier", obs::Cat::kComm);
    state_->barrier(rank_);
  }

  /// Broadcast `data` from `root` to every rank (in place).
  template <class T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.broadcast", obs::Cat::kComm);
    std::span<const std::byte> contrib;
    if (rank_ == root)
      contrib = std::as_bytes(std::span<const T>(data));
    auto all = state_->exchange(rank_, contrib, -1, true, "broadcast");
    data.resize(all.size() / sizeof(T));
    if (!all.empty()) std::memcpy(data.data(), all.data(), all.size());
  }

  /// Gather one value per rank to `root`; non-roots get an empty vector.
  template <class T>
  std::vector<T> gather(const T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.gather", obs::Cat::kComm);
    auto bytes = state_->exchange(rank_, std::as_bytes(std::span<const T>(&v, 1)),
                                  root, false, "gather");
    return unpack<T>(bytes);
  }

  /// Gather a variable-size block per rank to every rank, rank-ordered.
  template <class T>
  std::vector<T> allgatherv(std::span<const T> block) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.allgatherv", obs::Cat::kComm);
    auto bytes = state_->exchange(rank_, std::as_bytes(block), -1, true,
                                  "allgatherv");
    return unpack<T>(bytes);
  }

  template <class T>
  std::vector<T> allgather(const T& v) {
    return allgatherv(std::span<const T>(&v, 1));
  }

  /// Element-wise allreduce over a per-rank vector (all ranks get result).
  template <class T>
  std::vector<T> allreduce(std::span<const T> v, ReduceOp op) {
    static_assert(std::is_arithmetic_v<T>);
    obs::ObsScope span("comm.allreduce", obs::Cat::kComm);
    auto all = unpack<T>(
        state_->exchange(rank_, std::as_bytes(v), -1, true, "allreduce"));
    const std::size_t n = v.size();
    // Every rank sees the same gathered total, so when span lengths
    // differ at least one rank throws here (and run() rethrows it)
    // before any rank folds past the end of `all`.
    if (all.size() != n * static_cast<std::size_t>(size()))
      throw std::invalid_argument(
          "Comm::allreduce: span lengths differ across ranks (this rank " +
          std::to_string(n) + " elements, gathered " +
          std::to_string(all.size()) + " over " + std::to_string(size()) +
          " ranks)");
    // Fold rank-ordered blocks starting from rank 0's so every rank
    // computes the identical result.
    std::vector<T> out(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n));
    for (int r = 1; r < size(); ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        T x = all[static_cast<std::size_t>(r) * n + i];
        out[i] = detail::reduce_combine(out[i], x, op);
      }
    }
    return out;
  }

  template <class T>
  T allreduce(T v, ReduceOp op = ReduceOp::kSum) {
    return allreduce(std::span<const T>(&v, 1), op)[0];
  }

  /// Blocking tagged point-to-point send.
  template <class T>
  void send(int dst, int tag, std::span<const T> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.send", obs::Cat::kComm);
    state_->send(rank_, dst, tag, std::as_bytes(payload));
  }

  /// Blocking tagged receive; blocks until a matching message arrives.
  template <class T>
  std::vector<T> recv(int src, int tag) {
    obs::ObsScope span("comm.recv", obs::Cat::kComm);
    auto bytes = state_->recv(rank_, src, tag);
    return unpack<T>(bytes);
  }

  // --- nonblocking / reusable-buffer variants (overlapped hot paths).
  // Accounting parity: each accounts the identical op name and bytes as
  // its blocking twin, so comm_bytes does not depend on which one is used.

  /// Nonblocking tagged send; payload is in flight when this returns.
  template <class T>
  CommHandle isend(int dst, int tag, std::span<const T> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.isend", obs::Cat::kComm);
    return state_->isend(rank_, dst, tag, std::as_bytes(payload));
  }

  /// Nonblocking tagged receive; complete with wait<T>/wait_into.
  CommHandle irecv(int src, int tag) {
    obs::ObsScope span("comm.irecv", obs::Cat::kComm);
    return state_->irecv(rank_, src, tag);
  }

  /// Nonblocking allgatherv: the contribution is deposited at post so
  /// peers can assemble while this rank computes. At most one collective
  /// handle may be outstanding per rank (single collective slot).
  template <class T>
  CommHandle iallgatherv(std::span<const T> block) {
    static_assert(std::is_trivially_copyable_v<T>);
    obs::ObsScope span("comm.iallgatherv", obs::Cat::kComm);
    return state_->iexchange(rank_, std::as_bytes(block), -1, true,
                             "allgatherv");
  }

  template <class T>
  CommHandle iallgather(const T& v) {
    return iallgatherv(std::span<const T>(&v, 1));
  }

  /// Complete a handle and unpack its payload.
  template <class T>
  std::vector<T> wait(CommHandle& h) {
    obs::ObsScope span("comm.wait", obs::Cat::kComm);
    auto bytes = h.wait();
    return unpack<T>(bytes);
  }

  /// Complete a handle into a reusable typed buffer (capacity kept).
  template <class T>
  void wait_into(CommHandle& h, std::vector<T>& out) {
    obs::ObsScope span("comm.wait", obs::Cat::kComm);
    auto bytes = h.wait();
    unpack_into(bytes, out);
  }

  /// Blocking receive into a reusable typed buffer: together with the
  /// transport's recycled message buffers the steady-state comm loop
  /// performs zero heap allocations (asserted in test_obs).
  template <class T>
  void recv_into(int src, int tag, std::vector<T>& out) {
    obs::ObsScope span("comm.recv", obs::Cat::kComm);
    auto& scratch = recv_scratch();
    state_->recv_into(rank_, src, tag, scratch);
    unpack_into(scratch, out);
  }

  TrafficStats stats() const { return state_->stats(); }
  /// This rank's exact communication account (per-op calls/bytes, wait
  /// time) since construction or the last reset_stats().
  RankTraffic rank_traffic() const { return state_->rank_traffic(rank_); }
  void reset_stats() { state_->reset_stats(); }

private:
  template <class T>
  static std::vector<T> unpack(const std::vector<std::byte>& bytes) {
    if (bytes.size() % sizeof(T) != 0)
      throw std::runtime_error("SimComm: payload size mismatch");
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  template <class T>
  static void unpack_into(const std::vector<std::byte>& bytes,
                          std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes.size() % sizeof(T) != 0)
      throw std::runtime_error("SimComm: payload size mismatch");
    out.resize(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Reusable per-thread byte staging for recv_into (each logical rank is
  /// its own thread or process, so a thread_local is per-rank scratch).
  static std::vector<std::byte>& recv_scratch() {
    thread_local std::vector<std::byte> scratch;
    return scratch;
  }

  std::shared_ptr<Transport> state_;
  int rank_;
};

/// Launch `nranks` logical ranks against the given transport backend and
/// join them. Exceptions from any rank are rethrown on the caller.
/// Returns the aggregate traffic stats of the run and every rank's
/// account, complete after the join.
RunStats run(int nranks, TransportKind kind,
             const std::function<void(Comm&)>& body);

/// Launch against the process-wide default transport (--transport /
/// MLMD_TRANSPORT; in-process threads unless overridden).
RunStats run(int nranks, const std::function<void(Comm&)>& body);

} // namespace mlmd::par
