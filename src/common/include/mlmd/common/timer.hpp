#pragma once
// Wall-clock stopwatch used for all time-to-solution measurements.
// Accumulating per-kernel breakdowns live in the mlmd::obs registry
// (obs::Registry::global().histogram("<area>.<kernel>.seconds"), fed by an
// obs::ObsScope given that histogram).

#include <chrono>

namespace mlmd {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

} // namespace mlmd
