#pragma once
// Software FLOP accounting (paper Sec. VI.B: "Timers and FLOP count").
//
// The paper measures FLOP counts per domain and multiplies by the number
// of domains (Sec. VII.B). We reproduce that: kernels call
// flops::add(n) with their analytic operation count; benchmarks read the
// per-thread-aggregated counter around a timed region. Counting is
// always-on but costs one relaxed atomic add per kernel call (counts are
// accumulated in bulk, never per scalar operation).
//
// Thread-safety contract (DESIGN.md Sec. 7): the counter is a single
// process-global atomic, so add() is safe from SimComm rank threads and
// ThreadPool workers alike. Kernels keep contention negligible by adding
// their whole analytic count once, on the launching thread, before (or
// after) the parallel region. The exception is a chunk body that calls
// counted kernels (the stage-3 neural forces run Mlp passes per chunk):
// each call adds its own count, which is linear in its rows, so the
// total is unchanged by the chunking.

#include <atomic>
#include <cstdint>

namespace mlmd::flops {

namespace detail {
inline std::atomic<std::uint64_t>& counter() {
  static std::atomic<std::uint64_t> c{0};
  return c;
}
} // namespace detail

/// Record `n` floating-point operations.
inline void add(std::uint64_t n) {
  detail::counter().fetch_add(n, std::memory_order_relaxed);
}

/// Total FLOPs recorded since process start (or last reset).
inline std::uint64_t total() {
  return detail::counter().load(std::memory_order_relaxed);
}

/// Reset the global counter (benchmark setup only).
inline void reset() { detail::counter().store(0, std::memory_order_relaxed); }

/// RAII scope measuring FLOPs issued while alive.
class Scope {
public:
  Scope() : start_(total()) {}
  std::uint64_t flops() const { return total() - start_; }

private:
  std::uint64_t start_;
};

/// Analytic counts for common kernels (complex op = 4 real mul-adds etc.).
/// A complex multiply-accumulate is 8 real FLOPs; GEMM C[m,n] += A[m,k]B[k,n]
/// is 8*m*n*k FLOPs for complex data, 2*m*n*k for real data.
constexpr std::uint64_t gemm_complex(std::uint64_t m, std::uint64_t n, std::uint64_t k) {
  return 8 * m * n * k;
}
constexpr std::uint64_t gemm_real(std::uint64_t m, std::uint64_t n, std::uint64_t k) {
  return 2 * m * n * k;
}

} // namespace mlmd::flops
