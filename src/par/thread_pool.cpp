#include "mlmd/par/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <new>

#include "mlmd/common/workspace.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::par {

// One launched loop. Workers (and the launcher) claim chunk ids with an
// atomic fetch-add on `next`; `done` counts finished chunks and drives the
// launcher's completion wait. Held by shared_ptr so a worker that polls
// `next` just after the launcher returns never touches freed memory.
struct ThreadPool::Task {
  Task(ChunkFn c, std::size_t n) : chunk(c), nchunks(n) {}
  ChunkFn chunk;
  std::size_t nchunks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex err_mu;
  std::exception_ptr error;
  // obs accounting: publish timestamp (queue-wait measurement) and chunks
  // executed per participant (imbalance measurement).
  std::uint64_t publish_ns = 0;
  std::vector<std::atomic<std::uint32_t>> per_thread_chunks;
};

namespace {
// Set while this thread executes inside a pool task: nested launches from
// kernel bodies fall back to inline serial execution.
thread_local bool tl_in_task = false;
} // namespace

ThreadPool::ThreadPool(int nthreads) {
  if (nthreads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    nthreads = hw ? static_cast<int>(hw) : 1;
  }
  nthreads_ = nthreads;
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int i = 0; i < nthreads - 1; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  std::unique_lock lk(mu_);
  done_cv_.wait(lk, [&] { return ready_ == nthreads - 1; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int self) {
  // Reserve this worker's scratch arena (its first 1 MiB block) before
  // the pool counts as constructed. A worker that gets no chunk during a
  // caller's warm-up call then still takes none from the heap in its
  // first later chunk (DESIGN.md §8).
  {
    common::Workspace& ws = common::Workspace::local();
    common::Workspace::Frame frame(ws);
    ws.get<char>(1);
  }
  {
    std::lock_guard lk(mu_);
    ++ready_;
  }
  done_cv_.notify_all();
  std::uint64_t seen = 0;
  while (true) {
    std::shared_ptr<Task> t;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      t = current_;
    }
    if (t) {
      // Queue wait: how long this worker's wakeup lagged the launch.
      static auto& qw =
          obs::Registry::global().histogram("pool.queue_wait.seconds");
      qw.observe(static_cast<double>(obs::mono_ns() - t->publish_ns) * 1e-9);
      work_on(t, self);
    }
  }
}

void ThreadPool::work_on(const std::shared_ptr<Task>& t, int self) {
  const bool was_in_task = tl_in_task;
  tl_in_task = true;
  std::uint32_t executed = 0;
  while (true) {
    const std::size_t c = t->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= t->nchunks) break;
    if (!t->cancelled.load(std::memory_order_relaxed)) {
      try {
        t->chunk(c);
        ++executed;
      } catch (...) {
        {
          std::lock_guard lk(t->err_mu);
          if (!t->error) t->error = std::current_exception();
        }
        t->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    // Last finished chunk wakes the launcher. Notify under mu_ so the
    // launcher cannot miss the wakeup between its predicate check and
    // going to sleep.
    if (t->done.fetch_add(1, std::memory_order_acq_rel) + 1 == t->nchunks) {
      std::lock_guard lk(mu_);
      done_cv_.notify_all();
    }
  }
  if (executed > 0)
    t->per_thread_chunks[static_cast<std::size_t>(self)].fetch_add(
        executed, std::memory_order_relaxed);
  tl_in_task = was_in_task;
}

void ThreadPool::run_chunks(std::size_t nchunks, ChunkFn chunk) {
  if (nchunks == 0) return;
  auto& reg = obs::Registry::global();
  // Serial fallback: one thread, a single chunk, or a nested launch from
  // inside a pool task. Chunks run inline, in ascending order; exceptions
  // propagate directly.
  if (nthreads_ == 1 || nchunks == 1 || tl_in_task) {
    static auto& inline_launches = reg.counter("pool.inline_launches");
    inline_launches.add(1);
    for (std::size_t c = 0; c < nchunks; ++c) chunk(c);
    return;
  }

  static auto& launches = reg.counter("pool.launches");
  static auto& chunks_total = reg.counter("pool.chunks");
  launches.add(1);
  chunks_total.add(nchunks);
  obs::ObsScope span("pool.launch", obs::Cat::kTask);

  std::lock_guard launch(launch_mu_);
  auto t = std::make_shared<Task>(chunk, nchunks);
  t->per_thread_chunks =
      std::vector<std::atomic<std::uint32_t>>(static_cast<std::size_t>(nthreads_));
  t->publish_ns = obs::mono_ns();
  {
    std::lock_guard lk(mu_);
    current_ = t;
    ++epoch_;
  }
  cv_.notify_all();
  work_on(t, nthreads_ - 1); // the launcher participates
  {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] {
      return t->done.load(std::memory_order_acquire) == t->nchunks;
    });
    current_.reset();
  }
  // Imbalance of this launch: busiest participant's chunk share over the
  // perfectly-even share (1.0 = balanced, nthreads = one thread did all).
  std::uint32_t busiest = 0;
  for (const auto& n : t->per_thread_chunks)
    busiest = std::max(busiest, n.load(std::memory_order_relaxed));
  static auto& imbalance = reg.histogram("pool.imbalance");
  imbalance.observe(static_cast<double>(busiest) *
                    static_cast<double>(nthreads_) /
                    static_cast<double>(nchunks));
  if (t->error) std::rethrow_exception(t->error);
}

int ThreadPool::parse_env_threads(const char* value) {
  if (!value || !*value) return 0;
  char* endp = nullptr;
  const long v = std::strtol(value, &endp, 10);
  if (endp == value || *endp != '\0' || v < 1) return 0;
  return static_cast<int>(v < 1024 ? v : 1024);
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
} // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lk(g_pool_mu);
  if (!g_pool)
    g_pool = std::make_unique<ThreadPool>(
        parse_env_threads(std::getenv("MLMD_NUM_THREADS")));
  return *g_pool;
}

void ThreadPool::set_global_threads(int n) {
  std::lock_guard lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(n);
}

void ThreadPool::reset_after_fork() {
  // Only the forking thread exists in the child, so nobody can hold
  // g_pool_mu legitimately — but if the fork raced another thread's
  // global() call the mutex may be left locked forever. Re-initialize it
  // in place, then abandon the inherited pool object: its workers died
  // with the parent's address space and ~ThreadPool would join forever.
  new (&g_pool_mu) std::mutex();
  (void)g_pool.release(); // leak the ghost pool, never run its destructor
}

} // namespace mlmd::par
