#pragma once
// Guarded stepping and recovery (DESIGN.md Sec. 10): the detection and
// reaction half of mlmd::ft.
//
//   StepSentinel  per-step finiteness + energy-drift checks. Detection is
//                 policy-free; the caller applies the configured Policy
//                 (abort | rollback to last checkpoint | degrade to the
//                 baseline force model).
//   with_retry    bounded retry with exponential backoff for
//                 TransientError (transient comm faults). Anything else
//                 propagates immediately.
//   GuardTripped  what kAbort raises; carries the sentinel's description.
//
// Every detection and recovery increments the ft.faults.detected /
// ft.faults.recovered obs counters so traces and benchjson show the
// recovery cost.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"

namespace mlmd::ft {

/// Reaction to a tripped sentinel.
enum class Policy {
  kAbort,    ///< raise GuardTripped; the run dies loudly
  kRollback, ///< reload the last checkpoint and re-step
  kDegrade,  ///< swap the surrogate for the baseline model and continue
};

/// Parse "abort" | "rollback" | "degrade"; throws std::invalid_argument.
Policy parse_policy(const std::string& s);

/// Raised by the kAbort policy (and by kRollback when no checkpoint
/// exists or the rollback budget is exhausted).
class GuardTripped : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct GuardOptions {
  bool enabled = false;   ///< master switch: disabled guards cost nothing
  Policy policy = Policy::kAbort;
  double max_abs = 1e8;   ///< magnitude bound for check_values (<= 0: off)
  /// Relative energy-drift bound vs the first checked energy
  /// (|e - e_ref| > max_energy_drift * max(|e_ref|, 1)); <= 0 disables.
  double max_energy_drift = -1.0;
  int max_rollbacks = 3;  ///< kRollback attempts before giving up
};

/// Per-run detector. Not thread-safe (one sentinel per driving loop).
class StepSentinel {
 public:
  explicit StepSentinel(GuardOptions opt = {});

  const GuardOptions& options() const { return opt_; }

  /// Check every value for finiteness (and |v| <= max_abs when set).
  /// Returns true when clean; on the first offending value records the
  /// detection (obs ft.faults.detected, ft.guard.trips) and remembers a
  /// description retrievable via last_what().
  bool check_values(const char* what, std::span<const double> v);

  /// Check an energy for finiteness and drift against the first energy
  /// ever passed (the reference). Returns true when clean.
  bool check_energy(const char* what, double e);

  /// Forget the drift reference (call after rollback/restore, where the
  /// restored state's energy is the new baseline).
  void reset_energy_reference() { have_ref_ = false; }

  long trips() const { return trips_; }
  const std::string& last_what() const { return last_what_; }

 private:
  void record_trip(const char* what, const std::string& detail);

  GuardOptions opt_;
  long trips_ = 0;
  bool have_ref_ = false;
  double e_ref_ = 0.0;
  std::string last_what_;
};

struct RetryOptions {
  int max_attempts = 4;          ///< total tries, including the first
  double backoff_seconds = 0.0;  ///< sleep before retry #1 (0 = no sleep)
  double backoff_multiplier = 2.0;
  /// Deterministic jitter: each sleep is scaled by a seeded uniform factor
  /// in [1 - jitter/2, 1 + jitter/2], decorrelating retry storms across
  /// ranks without losing replayability. 0 (default) keeps the exact
  /// exponential schedule.
  double jitter = 0.0;
  std::uint64_t jitter_seed = 1;
  /// Cap on the TOTAL slept time across all retries, so a retry loop can
  /// never outlive its caller's deadline: once the budget is spent the
  /// pending TransientError is rethrown, and the last sleep is truncated
  /// to exactly exhaust the budget. < 0 (default) = unbounded.
  double max_total_seconds = -1.0;
};

/// Injectable backoff clock. with_retry sleeps through backoff_sleep(),
/// which forwards to the installed function — by default a real
/// std::this_thread::sleep_for. Tests (and the serve retry path) install a
/// recording no-op so exponential-backoff schedules are asserted without
/// wall-clock sleeps. set_backoff_sleep(nullptr) restores the real sleep
/// and returns the previously installed function (nullptr if it was the
/// default). The hook is process-global and atomic, like the fault hooks.
using BackoffSleepFn = void (*)(double seconds);
BackoffSleepFn set_backoff_sleep(BackoffSleepFn fn);
void backoff_sleep(double seconds);

/// Run `fn`, retrying on TransientError up to max_attempts with
/// exponential backoff. Counts ft.retry.attempts per retry and
/// ft.faults.recovered when a retry succeeds; rethrows the last
/// TransientError when the budget is exhausted. Non-transient exceptions
/// propagate immediately.
template <class F>
auto with_retry(F&& fn, const RetryOptions& opt = {})
    -> std::invoke_result_t<F&> {
  auto& reg = obs::Registry::global();
  static auto& attempts = reg.counter("ft.retry.attempts");
  static auto& detected = reg.counter("ft.faults.detected");
  static auto& recovered = reg.counter("ft.faults.recovered");
  double backoff = opt.backoff_seconds;
  double slept = 0.0;
  mlmd::Rng rng(opt.jitter_seed);
  for (int attempt = 1;; ++attempt) {
    try {
      if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
        fn();
        if (attempt > 1) recovered.add(1);
        return;
      } else {
        std::invoke_result_t<F&> result = fn();
        if (attempt > 1) recovered.add(1);
        return result;
      }
    } catch (const TransientError&) {
      detected.add(1);
      if (attempt >= opt.max_attempts) throw;
      double next = backoff;
      if (next > 0.0 && opt.jitter > 0.0)
        next *= 1.0 + opt.jitter * (rng.uniform() - 0.5);
      if (opt.max_total_seconds >= 0.0) {
        if (slept >= opt.max_total_seconds) throw;
        next = std::min(next, opt.max_total_seconds - slept);
      }
      attempts.add(1);
      if (next > 0.0) {
        backoff_sleep(next);
        slept += next;
      }
      backoff *= opt.backoff_multiplier;
    }
  }
}

} // namespace mlmd::ft
