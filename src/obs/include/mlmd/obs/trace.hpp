#pragma once
// mlmd::obs span tracer (DESIGN.md Sec. 9): always-compiled, off by
// default, near-zero overhead when disabled (one relaxed atomic load per
// would-be span). When enabled, RAII ObsScope spans record into lock-free
// per-thread ring buffers; Tracer::write_chrome_trace() merges them into a
// Chrome trace-event JSON array loadable in chrome://tracing / Perfetto.
//
// Span taxonomy (step > phase > kernel): a kStep span covers one MD/QD
// outer iteration, kPhase spans cover the stages inside it, kKernel spans
// the leaf compute kernels (gemm, kin_prop, ...). kComm marks SimComm
// collectives/point-to-point, kTask marks ThreadPool launches. Nesting is
// tracked per thread with an explicit depth so tests (and the exporter)
// can reconstruct the parent/child tree without timestamp heuristics.
//
// Thread-safety contract (mirrors DESIGN.md Sec. 7): each thread writes
// only its own ring buffer; a slot is written exactly once, then published
// by a release store of the head index. Readers (snapshot / export /
// span_count) acquire-load the head and read only published slots, so
// recording stays lock-free and concurrent reads are race-free under tsan.
// Buffers outlive their threads (the global registry keeps them alive), so
// flushing after a SimComm run observes every rank's spans.
//
// Names must be string literals (or otherwise outlive the flush): spans
// store the pointer, never copy, so recording allocates nothing in steady
// state. The only allocations ever made are one ring buffer per recording
// thread, and none at all while tracing is disabled (asserted in
// test_obs).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mlmd::obs {

class Histogram; // metrics.hpp

/// Nanoseconds on the monotonic clock. Unlike Tracer::now_ns() it is
/// meaningful whether or not the tracer was ever enabled.
std::uint64_t mono_ns();

/// Span category (taxonomy level); exported as the Chrome "cat" field.
enum class Cat : std::uint8_t {
  kStep = 0,   ///< one outer MD / QD / pipeline iteration
  kPhase = 1,  ///< a stage inside a step (forces, qd_loop, exchange, ...)
  kKernel = 2, ///< leaf compute kernel (gemm, kin_prop, energy_forces)
  kComm = 3,   ///< SimComm collective / point-to-point
  kTask = 4,   ///< ThreadPool parallel region
};

const char* cat_name(Cat c);

/// One completed span, as stored in the ring buffers and returned by
/// Tracer::snapshot(). Times are nanoseconds since the tracer epoch (the
/// first enable() of the process).
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;   ///< registration-order thread id, dense from 0
  std::uint32_t depth = 0; ///< nesting depth on its thread (0 = root)
  Cat cat = Cat::kKernel;
};

class Tracer {
public:
  /// Global on/off switch. Reading it is the entire disabled-mode cost of
  /// an ObsScope.
  static bool enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }
  /// Enable or disable recording. The first enable() fixes the trace
  /// epoch; later enables keep it, so timestamps stay monotonic across
  /// pause/resume.
  static void enable(bool on);

  /// Drop every recorded span (buffers stay allocated and registered).
  static void clear();

  /// Nanoseconds since the tracer epoch (0 if never enabled).
  static std::uint64_t now_ns();

  /// All published spans, merged across threads and sorted by
  /// (tid, t0_ns, depth): per-thread start order with parents before the
  /// children they enclose. Deterministic for a fixed set of spans.
  static std::vector<SpanEvent> snapshot();

  /// Total published spans across all threads.
  static std::uint64_t span_count();
  /// Spans discarded because a thread's ring filled (drop-newest).
  static std::uint64_t dropped();
  /// Number of per-thread ring buffers ever created (they are never
  /// freed). Stable while tracing is disabled — the zero-allocation
  /// assertion in test_obs.
  static std::size_t thread_buffer_count();

  /// Summed duration in seconds of all published spans whose name starts
  /// with `prefix` (optionally restricted to one category). Used by the
  /// benches to cross-check span totals against their own timers.
  static double summed_seconds(const std::string& prefix);

  /// Write the merged spans as a Chrome trace-event JSON array
  /// ("ph":"X" complete events, ts/dur in microseconds). Returns false if
  /// the file cannot be opened.
  static bool write_chrome_trace(const std::string& path);

  /// Record one completed span (called by ~ObsScope; exposed for tests).
  static void record(const char* name, Cat cat, std::uint64_t t0_ns,
                     std::uint64_t dur_ns, std::uint32_t depth);

private:
  friend class ObsScope;
  static std::atomic<bool> g_enabled;
  /// Enter/exit the calling thread's nesting level; enter returns the
  /// depth the new span runs at.
  static std::uint32_t enter_depth();
  static void exit_depth();
};

/// RAII span. Construction with tracing disabled does nothing but one
/// relaxed atomic load; with tracing enabled it stamps the start time and
/// the destructor publishes the completed span to the thread's ring. With
/// a `seconds` histogram it also observes the region's elapsed seconds
/// (mono_ns), whether tracing is on or off.
class ObsScope {
public:
  explicit ObsScope(const char* name, Cat cat = Cat::kKernel,
                    Histogram* seconds = nullptr)
      : seconds_(seconds) {
    if (seconds_) seconds_t0_ = mono_ns();
    if (!Tracer::enabled()) return;
    name_ = name;
    cat_ = cat;
    t0_ = Tracer::now_ns();
    depth_ = Tracer::enter_depth();
  }
  ~ObsScope() {
    if (name_) {
      Tracer::exit_depth();
      Tracer::record(name_, cat_, t0_, Tracer::now_ns() - t0_, depth_);
    }
    if (seconds_) observe_seconds(*seconds_, seconds_t0_);
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

private:
  static void observe_seconds(Histogram& h, std::uint64_t t0_ns);

  const char* name_ = nullptr;
  Histogram* seconds_ = nullptr;
  std::uint64_t seconds_t0_ = 0;
  std::uint64_t t0_ = 0;
  std::uint32_t depth_ = 0;
  Cat cat_ = Cat::kKernel;
};

} // namespace mlmd::obs
