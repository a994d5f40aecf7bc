#include "mlmd/par/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::par {

namespace {
// Set while this thread executes inside a pool task: nested launches from
// kernel bodies fall back to inline serial execution.
thread_local bool tl_in_task = false;

// Fields of ThreadPool::state_.
constexpr std::uint64_t kEpochUnit = std::uint64_t{1} << 32;
constexpr std::uint64_t kClosed = std::uint64_t{1} << 31;
constexpr std::uint64_t kInsideMask = kClosed - 1;
std::uint64_t epoch_of(std::uint64_t s) { return s >> 32; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Spin until `ready()` holds or ThreadPool::kSpinBudget elapses; returns
/// whether it holds.
template <class Pred>
bool spin_until(Pred ready) {
  const auto deadline = std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) return ready();
  }
}
} // namespace

ThreadPool::ThreadPool(int nthreads) : state_(kClosed) {
  if (nthreads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    nthreads = hw ? static_cast<int>(hw) : 1;
  }
  nthreads_ = nthreads;
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(nthreads));
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int i = 0; i < nthreads - 1; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  std::unique_lock lk(mu_);
  done_cv_.wait(lk, [&] { return ready_ == nthreads - 1; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_.store(true);
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
  static auto& queue_wait =
      obs::Registry::global().histogram("pool.queue_wait.seconds");
  std::uint64_t seen = 0; // epoch of the last launch this worker saw
  // seq_cst loads: paired with sleepers_ below and the launcher's publish.
  const auto launched = [&] { return stop_.load() || epoch_of(state_.load()) != seen; };
  while (true) {
    if (!spin_until(launched)) {
      std::unique_lock lk(mu_);
      sleepers_.fetch_add(1);
      cv_.wait(lk, launched);
      sleepers_.fetch_sub(1);
    }
    if (stop_.load()) return;
    // Enter the launch unless the launcher has already closed it (every
    // chunk done and every entrant gone).
    std::uint64_t s = state_.load(std::memory_order_acquire);
    bool entered = false;
    while (!entered && !(s & kClosed))
      entered = state_.compare_exchange_weak(s, s + 1, std::memory_order_acquire);
    seen = epoch_of(s);
    if (!entered) continue;
    // Queue wait: how long this worker's wakeup lagged the launch.
    queue_wait.observe(static_cast<double>(obs::mono_ns() - publish_ns_) * 1e-9);
    work_on(self);
    // Leave. The last worker out wakes a launcher that parked in join().
    if ((state_.fetch_sub(1) & kInsideMask) == 1 && joiner_parked_.load()) {
      { std::lock_guard lk(mu_); }
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::work_on(int self) {
  const bool was_in_task = tl_in_task;
  tl_in_task = true;
  std::uint32_t executed = 0;
  // Own range first, then steal from the others in ring order. A cursor
  // only grows, so one pass that finds every range empty is final.
  for (int k = 0; k < nthreads_; ++k) {
    Slot& slot = slots_[static_cast<std::size_t>((self + k) % nthreads_)];
    for (std::size_t c = slot.next.fetch_add(1, std::memory_order_relaxed);
         c < slot.end; c = slot.next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancelled_.load(std::memory_order_relaxed)) continue;
      try {
        chunk_(c);
        ++executed;
      } catch (...) {
        {
          std::lock_guard lk(err_mu_);
          if (!error_) error_ = std::current_exception();
        }
        cancelled_.store(true, std::memory_order_relaxed);
      }
    }
  }
  slots_[static_cast<std::size_t>(self)].executed = executed;
  tl_in_task = was_in_task;
}

void ThreadPool::join() {
  // seq_cst load: paired with joiner_parked_ and the leaving worker.
  const auto all_left = [&] { return (state_.load() & kInsideMask) == 0; };
  while (true) {
    if (!spin_until(all_left)) {
      std::unique_lock lk(mu_);
      joiner_parked_.store(true);
      done_cv_.wait(lk, all_left);
      joiner_parked_.store(false);
    }
    std::uint64_t s = state_.load(std::memory_order_acquire);
    if ((s & kInsideMask) == 0 &&
        state_.compare_exchange_strong(s, s | kClosed, std::memory_order_acq_rel))
      return;
    // A late worker entered between the check and the close: wait for it.
  }
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
  // The previous launch is closed, so nobody reads these until the epoch
  // below opens this one.
  chunk_ = chunk;
  cancelled_.store(false, std::memory_order_relaxed);
  const auto np = static_cast<std::size_t>(nthreads_);
  for (std::size_t p = 0; p < np; ++p) {
    slots_[p].next.store(p * nchunks / np, std::memory_order_relaxed);
    slots_[p].end = (p + 1) * nchunks / np;
    slots_[p].executed = 0;
  }
  publish_ns_ = obs::mono_ns();
  // Open the next epoch with nobody inside. A parking worker counts itself
  // in sleepers_ under mu_ before it tests the epoch (both seq_cst), so
  // either it sees the new epoch or this sees it and takes mu_, which it
  // can only get once the worker waits.
  state_.store((state_.load(std::memory_order_relaxed) & ~(kClosed | kInsideMask)) +
               kEpochUnit);
  if (sleepers_.load() > 0) {
    { std::lock_guard lk(mu_); }
    cv_.notify_all();
  }
  work_on(nthreads_ - 1); // the launcher participates
  join();
  // Imbalance of this launch: busiest participant's chunk share over the
  // perfectly-even share (1.0 = balanced, nthreads = one thread did all).
  std::uint32_t busiest = 0;
  for (std::size_t p = 0; p < np; ++p) busiest = std::max(busiest, slots_[p].executed);
  static auto& imbalance = reg.histogram("pool.imbalance");
  imbalance.observe(static_cast<double>(busiest) * static_cast<double>(nthreads_) /
                    static_cast<double>(nchunks));
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

int ThreadPool::parse_env_threads(const char* value) {
  if (!value || !*value) return 0;
  char* endp = nullptr;
  const long v = std::strtol(value, &endp, 10);
  if (endp == value || *endp != '\0' || v < 1) return 0;
  return static_cast<int>(v < 1024 ? v : 1024);
}

namespace {
// g_pool owns the global pool; g_pool_ptr publishes it, so global() is one
// atomic load once the pool exists. The mutex guards creation and
// replacement only.
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<ThreadPool*> g_pool_ptr{nullptr};
} // namespace

ThreadPool& ThreadPool::global() {
  if (ThreadPool* p = g_pool_ptr.load(std::memory_order_acquire)) return *p;
  std::lock_guard lk(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(
        parse_env_threads(std::getenv("MLMD_NUM_THREADS")));
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

void ThreadPool::set_global_threads(int n) {
  std::lock_guard lk(g_pool_mu);
  auto fresh = std::make_unique<ThreadPool>(n);
  g_pool_ptr.store(fresh.get(), std::memory_order_release);
  g_pool = std::move(fresh);
}

void ThreadPool::reset_after_fork() {
  // Only the forking thread exists in the child, so nobody can hold
  // g_pool_mu legitimately — but if the fork raced another thread's
  // global() call the mutex may be left locked forever. Re-initialize it
  // in place, then abandon the inherited pool object: its workers died
  // with the parent's address space and ~ThreadPool would join forever.
  new (&g_pool_mu) std::mutex();
  g_pool_ptr.store(nullptr, std::memory_order_relaxed);
  (void)g_pool.release(); // leak the ghost pool, never run its destructor
}

} // namespace mlmd::par
