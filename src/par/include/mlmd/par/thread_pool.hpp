#pragma once
// ThreadPool: persistent intra-node worker pool behind the hot compute
// kernels (GEMM macro-tiles, kin_prop sweeps, vloc phases, Maxwell
// stencils, neighbor-list builds). It supplies the node-level half of the
// paper's parallelism story: SimComm ranks stand in for MPI across nodes,
// the pool saturates the cores inside one (DESIGN.md Sec. 7).
//
// Scheduling: a launched loop is pre-split into fixed-size chunks, and
// each of the P participants (the nthreads-1 workers, then the launcher as
// participant P-1) owns a contiguous home range of chunk ids,
// [p*n/P, (p+1)*n/P). A participant claims its own chunks first with an
// atomic fetch-add on its range's cursor; once its range is empty it
// steals from the others' cursors in ring order. Repeated launches of the
// same loop (the stage-3 lattice step) so put the same rows on the same
// core every time, while a thread stuck on a slow chunk still does not
// stall the others.
//
// Launch cost: the pool owns the one in-flight launch's state (chunk
// body, cursors, counters), sized at construction, so a launch allocates
// nothing. An idle worker spins on the launch epoch for kSpinBudget
// before it parks on a condition variable, and the launcher's join spins
// on the count of workers inside the launch for the same budget before it
// sleeps. The join returns once every worker that entered the launch has
// left it, so the next launch may reuse the state.
//
// Determinism contract:
//   * The chunk decomposition depends only on (range, grain) — never on
//     the thread count. Chunk c covers [begin + c*grain, begin+(c+1)*grain).
//   * parallel_for chunks write disjoint data in well-formed kernels, so
//     results are bit-identical for every thread count.
//   * parallel_reduce evaluates one partial per chunk and combines the
//     partials in ascending chunk order on the calling thread, so the
//     floating-point reduction tree is also fixed: threads=1 and
//     threads=N produce bit-identical sums.
//   * threads=1 (the serial fallback) runs every chunk inline, in order,
//     on the calling thread; no worker threads are created at all.
//
// Thread-count selection for the process-global pool (first match wins):
//   1. ThreadPool::set_global_threads(n)    — programmatic / --threads=N CLI
//   2. MLMD_NUM_THREADS environment variable
//   3. std::thread::hardware_concurrency()
//
// Re-entrancy: a parallel_for issued from inside a pool task executes
// inline and serially on the issuing thread (no deadlock, no
// oversubscription). Concurrent launches from distinct external threads
// (e.g. several SimComm ranks) are serialized on a launch mutex — each
// launch runs with the full pool, one at a time.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mlmd/common/workspace.hpp"

namespace mlmd::par {

class ThreadPool {
public:
  /// A pool of `nthreads` total compute threads: the caller participates,
  /// so nthreads-1 workers are spawned. nthreads <= 0 selects
  /// hardware_concurrency (min 1).
  explicit ThreadPool(int nthreads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return nthreads_; }

  /// How long an idle worker spins on the launch epoch, and the launcher
  /// on its join, before parking. Measured gaps between launches on the
  /// 128² stage-3 loop at 4 threads are under 2 µs between ferro steps
  /// and ~20 µs (15–27 µs) after a recorded charge, so 30 µs covers both
  /// and no thread parks inside the loop. A longer gap costs one wake
  /// (~10 µs) on the next launch, after the caller was away longer than
  /// the budget anyway. A constant, not a knob: budgets of 30 and 100 µs
  /// gave the same Fig. 3 speed, and a longer one only burns CPU that
  /// co-running processes could use.
  static constexpr std::chrono::nanoseconds kSpinBudget{30'000};

  /// Run body(i0, i1) over disjoint subranges covering [begin, end).
  /// `grain` is the exact chunk width (see determinism contract); pick it
  /// so one chunk amortizes dispatch (>= ~10 us of work). Exceptions
  /// thrown by `body` cancel remaining chunks and the first one is
  /// rethrown on the calling thread. The body is called by reference, never
  /// copied, so an inline launch performs no heap allocation.
  template <class Body>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    Body&& body) {
    if (end <= begin) return;
    const std::size_t cs = grain ? grain : 1;
    const std::size_t nchunks = (end - begin + cs - 1) / cs;
    auto chunk = [&](std::size_t c) {
      const std::size_t i0 = begin + c * cs;
      const std::size_t i1 = i0 + cs < end ? i0 + cs : end;
      body(i0, i1);
    };
    run_chunks(nchunks, ChunkFn(chunk));
  }

  /// Deterministic reduction: acc = combine(acc, map(i0, i1)) over chunks
  /// in ascending order. `map` returns the partial for one chunk;
  /// `combine` folds partials left-to-right starting from `init`. The
  /// partials live in the calling thread's Workspace, so a warm call
  /// allocates nothing; T must therefore be trivially copyable.
  template <class T, class Map, class Combine>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, Map&& map, Combine&& combine) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "parallel_reduce keeps its partials in Workspace scratch");
    if (end <= begin) return init;
    const std::size_t cs = grain ? grain : 1;
    const std::size_t nchunks = (end - begin + cs - 1) / cs;
    common::Workspace& ws = common::Workspace::local();
    common::Workspace::Frame frame(ws);
    T* partials = ws.get<T>(nchunks);
    auto chunk = [&](std::size_t c) {
      const std::size_t i0 = begin + c * cs;
      const std::size_t i1 = i0 + cs < end ? i0 + cs : end;
      ::new (static_cast<void*>(partials + c)) T(map(i0, i1));
    };
    run_chunks(nchunks, ChunkFn(chunk));
    T acc = init;
    for (std::size_t c = 0; c < nchunks; ++c) acc = combine(acc, partials[c]);
    return acc;
  }

  /// The process-global pool used by the compute kernels. Created on
  /// first use from MLMD_NUM_THREADS / hardware_concurrency; after that a
  /// lookup is one atomic load, no lock.
  static ThreadPool& global();

  /// Replace the global pool with an `n`-thread one. Call at startup (or
  /// between kernels in tests); must not race in-flight parallel regions.
  static void set_global_threads(int n);

  /// Parse an MLMD_NUM_THREADS value: returns the thread count, or 0
  /// (meaning "use the hardware default") for null/empty/malformed/<1.
  /// Exposed for unit testing.
  static int parse_env_threads(const char* value);

  /// Call first thing in a forked child: the parent's worker threads do
  /// not survive fork, so the inherited global pool is a ghost whose
  /// destructor would join threads that no longer exist. Abandons it
  /// (deliberate one-time leak) and reinitializes the guard mutex so the
  /// child can build a fresh pool on first use.
  static void reset_after_fork();

private:
  /// Non-owning reference to a `void(std::size_t)` chunk body: type
  /// erasure without std::function's heap-allocated copy. The launcher
  /// blocks until every chunk has run, so the referenced callable
  /// outlives every call through it.
  class ChunkFn {
  public:
    ChunkFn() = default;
    template <class F>
      requires(!std::is_same_v<std::remove_cv_t<F>, ChunkFn>)
    explicit ChunkFn(F& f)
        : obj_(&f), call_([](void* o, std::size_t c) { (*static_cast<F*>(o))(c); }) {}
    void operator()(std::size_t c) const { call_(obj_, c); }

  private:
    void* obj_ = nullptr;
    void (*call_)(void*, std::size_t) = nullptr;
  };

  /// One participant's home range of the current launch: chunks
  /// [next, end) are unclaimed. `executed` counts the chunks this
  /// participant ran (the imbalance measurement). One cache line each.
  struct alignas(64) Slot {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::uint32_t executed = 0;
  };

  /// Dispatch chunk(c) for c in [0, nchunks) across the pool.
  void run_chunks(std::size_t nchunks, ChunkFn chunk);
  /// Claim and run chunks of the current launch, home range first, until
  /// every range is empty. `self` is the participant index: workers are
  /// 0..nthreads-2, the launcher is nthreads-1.
  void work_on(int self);
  /// The launcher's join: wait until no worker is inside the launch, then
  /// close it so no late worker can enter.
  void join();
  void worker_loop(int self);

  int nthreads_ = 1;

  // Launch state word: the launch epoch in bits [32, 64), kClosed in bit
  // 31, the number of workers inside the launch in bits [0, 31). Workers
  // enter with a CAS that fails once the launcher has closed the launch,
  // so the join can tell "every entrant has left" from "one is entering".
  alignas(64) std::atomic<std::uint64_t> state_;
  // The current launch, written by the launcher before it opens the epoch
  // and read by participants only while they are inside it.
  alignas(64) ChunkFn chunk_;
  std::uint64_t publish_ns_ = 0; // queue-wait measurement
  std::atomic<bool> cancelled_{false};
  std::unique_ptr<Slot[]> slots_; // nthreads_ home ranges
  std::mutex err_mu_;
  std::exception_ptr error_;

  // Parking. Workers past their spin budget sleep on cv_ and count
  // themselves in sleepers_, so a launch notifies only when someone
  // sleeps; a launcher past its join budget sleeps on done_cv_ with
  // joiner_parked_ set, and the last worker out wakes it.
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_; // also the constructor's ready_ wait
  std::atomic<int> sleepers_{0};
  std::atomic<bool> joiner_parked_{false};
  std::atomic<bool> stop_{false};
  int ready_ = 0; // workers whose scratch arena is reserved (guarded by mu_)

  std::mutex launch_mu_; // serializes external launches

  std::vector<std::thread> workers_; // after everything they use
};

/// Convenience wrappers over ThreadPool::global().
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Body&& body) {
  ThreadPool::global().parallel_for(begin, end, grain, std::forward<Body>(body));
}

template <class T, class Map, class Combine>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain, T init,
                  Map&& map, Combine&& combine) {
  return ThreadPool::global().parallel_reduce(begin, end, grain, std::move(init),
                                              std::forward<Map>(map),
                                              std::forward<Combine>(combine));
}

inline int num_threads() { return ThreadPool::global().num_threads(); }

} // namespace mlmd::par
