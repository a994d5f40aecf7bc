#pragma once
// SimComm: a message-passing substrate standing in for MPI (DESIGN.md
// Sec. 1 and Sec. 11). Logical ranks run as real threads of one process;
// collectives and point-to-point transfers move real bytes and are
// metered, so communication volume and message counts measured here
// match what an MPI build would put on the wire.
//
// The communicator API deliberately mirrors the MPI subset MLMD uses:
// barrier, broadcast, allreduce, gather/allgather(v), blocking send/recv,
// and nonblocking isend/irecv/iallgatherv (halo exchange and overlapped
// collectives). Rank count is bounded by thread limits (hundreds); the
// paper-scale sweeps (P up to 120,000) use mlmd::perf's calibrated
// machine model instead.

#include <algorithm>
#include <array>
#include <atomic>
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

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::par {

/// Aggregate traffic counters for one run (summed over all ranks).
struct TrafficStats {
  std::uint64_t messages = 0;       ///< point-to-point messages sent
  std::uint64_t p2p_bytes = 0;      ///< point-to-point payload bytes
  std::uint64_t collective_ops = 0; ///< collective invocations (per rank)
  std::uint64_t collective_bytes = 0;
};

/// Calls and contributed payload bytes of one operation kind on one rank.
struct RankOpStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Exact per-rank communication account (obs subsystem, DESIGN.md
/// Sec. 9): every collective entry, point-to-point message, and the wall
/// time this rank spent blocked waiting on peers. Op keys are the Comm
/// method names: "barrier", "broadcast", "gather", "allgatherv",
/// "allreduce", "send", "recv" (allgather accounts under the allgatherv
/// primitive it is built from).
struct RankTraffic {
  std::map<std::string, RankOpStats> ops;
  double wait_seconds = 0.0; ///< total time blocked in barrier/exchange/recv
  /// Comm time hidden behind compute: for every nonblocking handle, the
  /// wall span between posting the op and entering wait() on it.
  double overlap_seconds = 0.0;
  std::uint64_t handles_posted = 0;    ///< isend/irecv/iexchange handles created
  std::uint64_t handles_completed = 0; ///< handles that reached wait()
};

/// What par::run returns: the group totals plus every rank's account,
/// read once all ranks have joined.
struct RunStats : TrafficStats {
  std::vector<RankTraffic> ranks;
};

/// Process-wide progress timeout in SECONDS (DESIGN.md Sec. 15). When
/// > 0, every blocking SimComm wait — barrier, exchange, recv, and
/// CommHandle::wait (which runs the blocking op underneath) — bounds the
/// time it will sit with NO progress from the awaited peer; on expiry
/// the group is poisoned and the blocked ranks unwind with
/// ft::StallError ("no progress for ...") instead of hanging forever. A
/// peer that throws poisons the group at once; the timeout covers the
/// live-but-wedged peer that never throws. <= 0 (the default) preserves
/// the historical block-forever behavior and costs nothing on the fast
/// path. Initialized from the MLMD_COMM_TIMEOUT_MS environment variable
/// (milliseconds) on first use; set_progress_timeout overrides it.
double progress_timeout();
void set_progress_timeout(double seconds);

/// Reduction operators for allreduce/reduce.
enum class ReduceOp { kSum, kMin, kMax };

namespace detail {
class GroupState;
} // namespace detail

/// Waitable completion handle for a nonblocking SimComm operation
/// (isend/irecv/iexchange). Post-time side effects (payload copy,
/// collective deposit) have already happened when the handle is
/// returned; wait() blocks until the operation completes and surrenders
/// the received payload (empty for sends). Every posted handle must be
/// waited before the group tears down — the posted/completed counters in
/// RankTraffic make a leaked handle a validated invariant violation.
class CommHandle {
public:
  CommHandle() = default; ///< empty handle; valid() is false
  bool valid() const { return st_ != nullptr; }
  bool done() const { return st_ && st_->completed; }
  /// Block until the operation completes and return its payload. The
  /// post -> wait window is recorded as overlap (comm hidden behind
  /// compute); any further blocking inside counts as wait time, exactly
  /// like the synchronous op. The payload is surrendered to the first
  /// wait(); later calls return an empty vector. Errors (abort poisoning,
  /// bad peer) surface here with the same exception taxonomy as the
  /// blocking call would have thrown.
  std::vector<std::byte> wait();

private:
  friend class detail::GroupState;
  /// Shared completion record; only GroupState and the handle touch it.
  struct State {
    detail::GroupState* owner = nullptr;
    int rank = 0;
    double posted_at = 0.0;
    bool completed = false;
    std::vector<std::byte> result;
    std::function<std::vector<std::byte>()> complete;
  };
  explicit CommHandle(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

namespace detail {

/// Shared state for one group of ranks running as threads: mailboxes,
/// the sense-reversing barrier, collective scratch space, and the
/// per-rank traffic accounts. Every Comm method is built from its five
/// wire-level primitives: barrier, generic collective exchange, tagged
/// point-to-point send/recv, and abort-poisoning.
class GroupState {
public:
  explicit GroupState(int nranks);

  int size() const { return nranks_; }

  void barrier(int rank);
  /// Collective byte exchange: every rank contributes `contrib`; rank
  /// `root` (or all, if `to_all`) receives the concatenation ordered by
  /// rank. Implements broadcast/gather/allgather/reduce generically.
  /// `op` names the calling Comm method for per-rank accounting; it must
  /// be a string literal (stored, never copied).
  std::vector<std::byte> exchange(int rank, std::span<const std::byte> contrib,
                                  int root, bool to_all, const char* op);

  void send(int src, int dst, int tag, std::span<const std::byte> payload);
  std::vector<std::byte> recv(int dst, int src, int tag);

  // --- nonblocking primitives (the overlapped stepping loops) ----------
  // Accounting parity contract: an async op accounts the identical op
  // name and byte count as its blocking twin, exactly once, so per-rank
  // comm_bytes does not depend on which of the two a caller uses. Only
  // wait/overlap seconds may differ.

  /// Nonblocking tagged send. Sends are buffered in the receiver's
  /// mailbox, so the payload is in flight when the handle returns; the
  /// handle completes at post with an empty payload.
  CommHandle isend(int src, int dst, int tag,
                   std::span<const std::byte> payload);
  /// Nonblocking tagged receive; wait() yields the payload.
  CommHandle irecv(int dst, int src, int tag);
  /// Split-phase collective: the post deposits this rank's contribution
  /// (so the collective can assemble while this rank computes); wait()
  /// blocks for the assembled result. Identical protocol, op order, and
  /// accounting as exchange().
  CommHandle iexchange(int rank, std::span<const std::byte> contrib, int root,
                       bool to_all, const char* op);

  /// Poison the group: every rank blocked (or about to block) in
  /// barrier/exchange/recv unwinds with a "SimComm aborted" runtime_error
  /// instead of waiting forever. Called by run() when any rank throws.
  void abort(const std::string& reason);

  /// Every rank's account plus the group totals derived from it (what
  /// run() returns): messages and p2p bytes are the "send" entries,
  /// collective ops and bytes every op but barrier, send and recv.
  RunStats run_stats() const;

private:
  friend class mlmd::par::CommHandle;

  /// Monotonic seconds since an arbitrary epoch (wait/overlap accounting).
  static double mono_seconds();

  /// Handle bookkeeping: called once at post (completed = false) and once
  /// when wait() fires (completed = true, with the post -> wait overlap
  /// window). Records the per-rank RankTraffic account and publishes the
  /// process-global obs instruments ("simcomm.handles.posted"/
  /// ".completed", "simcomm.overlap.seconds").
  void note_handle(int rank, bool completed, double overlap_seconds);
  /// Build an already-completed handle (eager ops, e.g. isend).
  CommHandle make_completed(int rank);
  /// Build a deferred handle whose wait() runs `complete`.
  CommHandle make_deferred(int rank,
                           std::function<std::vector<std::byte>()> complete);

  /// Account one op entry for `rank` and publish to the obs registry.
  void account(int rank, const char* op, std::size_t bytes);
  /// Account wall time `rank` just spent blocked.
  void account_wait(int rank, double seconds);
  /// Publish one op account ("simcomm.<op>.calls"/".bytes") to the
  /// process-global obs registry through per-op cached counter handles:
  /// zero registry lookups and zero heap allocations on the steady-state
  /// path (the registry names exceed SSO and used to be rebuilt per
  /// call). `op` must be a string literal.
  void account_obs(const char* op, std::size_t bytes);
  /// Publish blocked-wait seconds to the "simcomm.wait.seconds"
  /// histogram (cached handle).
  static void account_wait_obs(double seconds);

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
  /// slice) and expiry poisons the group and throws ft::StallError.
  /// Returns the seconds spent blocked, for the caller's wait accounting.
  /// Caller holds lk on mu_.
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

  mutable std::mutex stats_mu_;
  std::vector<RankTraffic> rank_traffic_;

  // account_obs's per-op counter handles.
  struct OpCell {
    const char* op = nullptr;
    obs::Counter* calls = nullptr;
    obs::Counter* bytes = nullptr;
  };
  static constexpr int kMaxOps = 16;
  std::array<OpCell, kMaxOps> op_cells_{};
  std::atomic<int> n_op_cells_{0};
  std::mutex op_mu_; // guards registrations into op_cells_
};

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

/// Per-rank communicator handle (the `MPI_Comm` + rank analogue) on the
/// group's shared GroupState.
class Comm {
public:
  Comm(std::shared_ptr<detail::GroupState> state, int rank)
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

  // --- nonblocking variants (overlapped hot paths).
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

  std::shared_ptr<detail::GroupState> state_;
  int rank_;
};

/// Launch `nranks` logical ranks as threads and join them. Exceptions
/// from any rank are rethrown on the caller. Returns the aggregate
/// traffic stats of the run and every rank's account, complete after the
/// join.
RunStats run(int nranks, const std::function<void(Comm&)>& body);

} // namespace mlmd::par
