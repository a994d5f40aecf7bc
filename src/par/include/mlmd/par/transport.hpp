#pragma once
// SimComm transport abstraction (DESIGN.md Sec. 11). A Transport owns the
// shared state of one group of ranks and implements the five wire-level
// primitives every Comm method is built from: barrier, generic collective
// exchange, tagged point-to-point send/recv, and abort-poisoning. Two
// backends exist:
//
//   * detail::GroupState (simcomm.hpp) — ranks are threads in one
//     process; mailboxes and collective scratch live on the heap. The
//     default and the TSan-checked test backend.
//   * the shared-memory backend (shm_transport.cpp) — ranks are forked
//     processes; collectives and point-to-point frames move through an
//     mmap'd region with process-shared (futex-backed) mutex/condvar
//     signaling. Selected with --transport=shm or MLMD_TRANSPORT=shm.
//
// The interface is deliberately identical to what GroupState always
// exposed, so every collective call site, mlmd::ft fault hook, and
// mlmd::obs accounting lane is backend-agnostic: per-rank RankTraffic
// (op calls/bytes) is byte-identical across backends for the same
// program, only the measured wait times differ.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mlmd/obs/metrics.hpp"

namespace mlmd::par {

/// Aggregate traffic counters for one run (summed over all ranks).
/// Trivially copyable: the shm backend keeps the live instance in the
/// shared mapping.
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

class Transport;

/// Waitable completion handle for a nonblocking transport operation
/// (Transport::isend/irecv/iexchange). Post-time side effects (payload
/// copy, collective deposit) have already happened when the handle is
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

  /// Shared completion record. Public so backend overrides can name it in
  /// their completion closures; only Transport and the handle itself ever
  /// touch an instance.
  struct State {
    Transport* owner = nullptr;
    int rank = 0;
    double posted_at = 0.0;
    bool completed = false;
    std::vector<std::byte> staged; ///< deferred ops: post-time payload copy
    std::vector<std::byte> result;
    std::function<std::vector<std::byte>(State&)> complete;
  };

private:
  friend class Transport;
  explicit CommHandle(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

/// Backend-neutral transport interface for one group of ranks.
class Transport {
public:
  virtual ~Transport() = default;

  virtual int size() const = 0;

  virtual void barrier(int rank) = 0;
  /// Collective byte exchange: every rank contributes `contrib`; rank
  /// `root` (or all, if `to_all`) receives the concatenation ordered by
  /// rank. Implements broadcast/gather/allgather/reduce generically.
  /// `op` names the calling Comm method for per-rank accounting; it must
  /// be a string literal (stored, never copied).
  virtual std::vector<std::byte> exchange(int rank,
                                          std::span<const std::byte> contrib,
                                          int root, bool to_all,
                                          const char* op) = 0;

  virtual void send(int src, int dst, int tag,
                    std::span<const std::byte> payload) = 0;
  virtual std::vector<std::byte> recv(int dst, int src, int tag) = 0;
  /// Blocking receive into a caller-owned reusable buffer: `out` is
  /// resized to the payload and its capacity is reused across calls, and
  /// the backend recycles its internal message buffers, so the
  /// steady-state comm loop performs zero heap allocations (asserted in
  /// test_obs).
  virtual void recv_into(int dst, int src, int tag,
                         std::vector<std::byte>& out) = 0;

  // --- nonblocking primitives (the overlapped stepping loops) ----------
  // Accounting parity contract: an async op accounts the identical op
  // name and byte count as its blocking twin, exactly once, so per-rank
  // comm_bytes does not depend on which of the two a caller uses (nor on
  // the transport). Only wait/overlap seconds may differ.

  /// Nonblocking tagged send. The payload is consumed (copied toward the
  /// receiver) at post time; the returned handle completes with an empty
  /// payload. Backends whose send buffers fill may block at post, exactly
  /// like the blocking send would.
  virtual CommHandle isend(int src, int dst, int tag,
                           std::span<const std::byte> payload);
  /// Nonblocking tagged receive; wait() yields the payload.
  virtual CommHandle irecv(int dst, int src, int tag);
  /// Nonblocking collective exchange. Post deposits this rank's
  /// contribution (so peers can complete without waiting for this rank's
  /// wait()); wait() blocks for the assembled result. Same result and
  /// accounting as exchange().
  virtual CommHandle iexchange(int rank, std::span<const std::byte> contrib,
                               int root, bool to_all, const char* op);

  /// Poison the group: every rank blocked (or about to block) in
  /// barrier/exchange/recv unwinds with a "SimComm aborted" runtime_error
  /// instead of waiting forever. Called by run() when any rank throws.
  virtual void abort(const std::string& reason) = 0;

  virtual TrafficStats stats() const = 0;
  virtual RankTraffic rank_traffic(int rank) const = 0;
  virtual void reset_stats() = 0;

  /// stats() plus rank_traffic() of every rank (what run() returns).
  RunStats run_stats() const;

protected:
  friend class CommHandle;

  /// Monotonic seconds since an arbitrary epoch (wait/overlap accounting).
  static double mono_seconds();

  /// Handle bookkeeping: called once at post (completed = false) and once
  /// when wait() fires (completed = true, with the post -> wait overlap
  /// window). The base implementation publishes the process-global obs
  /// instruments ("simcomm.handles.posted"/".completed",
  /// "simcomm.overlap.seconds"); backends override to also record the
  /// per-rank RankTraffic account, then call the base.
  virtual void note_handle(int rank, bool completed, double overlap_seconds);

  /// Build an already-completed handle (eager ops, e.g. isend).
  CommHandle make_completed(int rank);
  /// Build a deferred handle whose wait() runs `complete`. `staged` is
  /// retained in the handle state (post-time payload copy for deferred
  /// ops; the closure reads it through the State& argument).
  CommHandle make_deferred(int rank, std::vector<std::byte> staged,
                           std::function<std::vector<std::byte>(
                               CommHandle::State&)> complete);
  /// Publish one op account ("simcomm.<op>.calls"/".bytes") to the
  /// process-global obs registry through per-op cached counter handles:
  /// zero registry lookups and zero heap allocations on the steady-state
  /// path (the registry names exceed SSO and used to be rebuilt per
  /// call). `op` must be a string literal.
  void account_obs(const char* op, std::size_t bytes);
  /// Publish blocked-wait seconds to the "simcomm.wait.seconds"
  /// histogram (cached handle).
  static void account_wait_obs(double seconds);

private:
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

/// Selectable transport backends (--transport=inproc|shm).
enum class TransportKind { kInproc, kShm };

/// (name, value) table for Cli::choice — the single source of the
/// accepted --transport spellings: the canonical backend names plus the
/// "what are ranks" aliases ("threads" for inproc, "procs" for shm).
inline constexpr std::pair<const char*, TransportKind> kTransportChoices[] = {
    {"inproc", TransportKind::kInproc},
    {"shm", TransportKind::kShm},
    {"threads", TransportKind::kInproc},
    {"procs", TransportKind::kShm},
};

/// Parse a --transport value (kTransportChoices spellings); throws
/// std::invalid_argument (with the accepted spellings in the message) on
/// anything else. Used for the MLMD_TRANSPORT environment variable;
/// command lines go through Cli::choice with kTransportChoices instead.
TransportKind parse_transport(const std::string& name);
const char* transport_name(TransportKind kind);

/// Process-wide default backend used by run(nranks, body). Initialized
/// from the MLMD_TRANSPORT environment variable ("inproc"/"shm") on first
/// use; set_default_transport (the --transport flag) overrides it.
TransportKind default_transport();
void set_default_transport(TransportKind kind);

/// Process-wide transport progress timeout in SECONDS (DESIGN.md
/// Sec. 15). When > 0, every blocking transport wait — barrier, exchange,
/// recv, the shm park path, and CommHandle::wait (which runs the blocking
/// op underneath) — bounds the time it will sit with NO progress from the
/// awaited peer; on expiry the group is poisoned and the blocked ranks
/// unwind with ft::StallError ("no progress for ...") instead of hanging
/// forever. Peer DEATH is detected independently of this timeout (the shm
/// waitpid watchdog poisons the doorbell immediately); the timeout covers
/// the live-but-wedged peer the watchdog cannot see. <= 0 (the default)
/// preserves the historical block-forever behavior and costs nothing on
/// the fast path. Initialized from the MLMD_COMM_TIMEOUT_MS environment
/// variable (milliseconds) on first use; set_progress_timeout overrides
/// it.
double progress_timeout();
void set_progress_timeout(double seconds);

} // namespace mlmd::par
