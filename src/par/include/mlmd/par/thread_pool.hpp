#pragma once
// ThreadPool: persistent intra-node worker pool behind the hot compute
// kernels (GEMM macro-tiles, kin_prop sweeps, vloc phases, Maxwell
// stencils, neighbor-list builds). It supplies the node-level half of the
// paper's parallelism story: SimComm ranks stand in for MPI across nodes,
// the pool saturates the cores inside one (DESIGN.md Sec. 7).
//
// Scheduling is "work-stealing-lite": a launched loop is pre-split into
// fixed-size chunks and idle threads claim the next chunk with a single
// atomic fetch-add. That gives dynamic load balancing (a thread stuck on
// a slow chunk does not stall the others) without per-thread deques.
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
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

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
  /// `combine` folds partials left-to-right starting from `init`.
  template <class T, class Map, class Combine>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, Map&& map, Combine&& combine) {
    if (end <= begin) return init;
    const std::size_t cs = grain ? grain : 1;
    const std::size_t nchunks = (end - begin + cs - 1) / cs;
    std::vector<T> partials(nchunks, init);
    auto chunk = [&](std::size_t c) {
      const std::size_t i0 = begin + c * cs;
      const std::size_t i1 = i0 + cs < end ? i0 + cs : end;
      partials[c] = map(i0, i1);
    };
    run_chunks(nchunks, ChunkFn(chunk));
    T acc = std::move(init);
    for (std::size_t c = 0; c < nchunks; ++c)
      acc = combine(std::move(acc), std::move(partials[c]));
    return acc;
  }

  /// The process-global pool used by the compute kernels. Created on
  /// first use from MLMD_NUM_THREADS / hardware_concurrency.
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
  struct Task;

  /// Non-owning reference to a `void(std::size_t)` chunk body: type
  /// erasure without std::function's heap-allocated copy. The launcher
  /// blocks until every chunk has run, so the referenced callable
  /// outlives every call through it.
  class ChunkFn {
  public:
    template <class F>
      requires(!std::is_same_v<std::remove_cv_t<F>, ChunkFn>)
    explicit ChunkFn(F& f)
        : obj_(&f), call_([](void* o, std::size_t c) { (*static_cast<F*>(o))(c); }) {}
    void operator()(std::size_t c) const { call_(obj_, c); }

  private:
    void* obj_;
    void (*call_)(void*, std::size_t);
  };

  /// Dispatch chunk(c) for c in [0, nchunks) across the pool.
  void run_chunks(std::size_t nchunks, ChunkFn chunk);
  /// `self` is the participant index for per-thread chunk accounting:
  /// workers are 0..nthreads-2, the launcher is nthreads-1.
  void work_on(const std::shared_ptr<Task>& t, int self);
  void worker_loop(int self);

  int nthreads_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // guards epoch_/current_/stop_
  std::condition_variable cv_;     // workers wait for a new epoch
  std::condition_variable done_cv_; // launcher waits for task completion
  std::shared_ptr<Task> current_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  std::mutex launch_mu_; // serializes external launches
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
