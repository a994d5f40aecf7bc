#pragma once
// mlmd::obs metrics registry (DESIGN.md Sec. 9): named counters, gauges
// and histograms, always on.
//
// Instruments are registered once by name in the process-global Registry
// (mutex-protected map; registration is the only locking path) and the
// returned references stay valid for the life of the process, so hot
// paths do the idiomatic
//
//   static auto& c = obs::Registry::global().counter("simcomm.p2p.bytes");
//   c.add(n);
//
// and pay one relaxed atomic RMW per update — safe from any thread,
// including ThreadPool workers and SimComm rank threads. Threads share one
// cell; the tracer, not the registry, carries per-thread attribution.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mlmd::obs {

/// Monotonic unsigned counter (bytes moved, messages, calls, allocs).
class Counter {
public:
  void add(std::uint64_t v = 1) { v_.fetch_add(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (imbalance ratio, queue depth, thread count).
class Gauge {
public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> v_{0.0};
};

/// Streaming count/sum/min/max of double samples (span seconds, queue
/// wait, payload sizes), plus fixed log-scale buckets for quantile
/// estimates (serve latency lanes need p50/p95/p99). Buckets are 4
/// sub-buckets per power of two across 64 octaves (2^-40 .. 2^24, so
/// ~1e-12 s to ~2e7 s at ≤ 19% relative width); samples outside the range
/// clamp to the edge buckets, non-positive samples land in bucket 0.
class Histogram {
public:
  static constexpr int kSubBuckets = 4;   ///< per octave
  static constexpr int kOctaves = 64;
  static constexpr int kMinExp = -40;     ///< frexp exponent of bucket 0
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  void observe(double x) {
    count_.fetch_add(1, std::memory_order_relaxed);
    add_double(sum_, x);
    update_min(x);
    update_max(x);
    buckets_[bucket_index(x)].fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    const auto n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Quantile estimate (q in [0, 1]) from the log buckets: the upper edge
  /// of the bucket holding the q-th ranked sample, clamped to the observed
  /// [min, max] (so the relative error is bounded by the ≤ 19% bucket
  /// width, and exact at the extremes). Returns 0 with no samples.
  double quantile(double q) const;

  void reset();

private:
  friend class Registry; // histograms_snapshot() copies the buckets
  static void add_double(std::atomic<double>& a, double x) {
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
    }
  }
  void update_min(double x) {
    double cur = min_.load(std::memory_order_relaxed);
    while (x < cur &&
           !min_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  void update_max(double x) {
    double cur = max_.load(std::memory_order_relaxed);
    while (x > cur &&
           !max_.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
    }
  }
  static int bucket_index(double x);
  static double bucket_upper(int idx);

  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
};

/// Process-global instrument registry.
class Registry {
public:
  static Registry& global();

  /// Get-or-register. References stay valid forever; concurrent calls for
  /// the same name return the same instrument. Registering one name as
  /// two different kinds throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every instrument (registrations survive).
  void reset();

  /// The whole registry as one JSON object {"counters": {...},
  /// "gauges": {...}, "histograms": {name: {count, sum[, min, p50, p95,
  /// p99, max]}, ...}}, names sorted; the quantiles and extremes appear
  /// once a histogram has samples. This is the "registry" section of
  /// every bench --json artifact (DESIGN.md Sec. 9).
  std::string report_json() const;

  struct HistogramSample {
    std::string name;
    std::uint64_t count;
    double sum, min, max;
    std::vector<std::uint64_t> buckets; ///< kBuckets per-bucket counts
  };
  /// Histograms whose name starts with `prefix` (all if empty), sorted by
  /// name — the enumeration path for per-kernel breakdown tables.
  std::vector<HistogramSample> histograms_snapshot(
      std::string_view prefix = {}) const;

private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Cell {
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Cell& cell(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Cell, std::less<>> cells_;
};

} // namespace mlmd::obs
