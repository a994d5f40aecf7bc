#pragma once
// Guarded stepping and recovery (DESIGN.md Sec. 10): the detection and
// reaction half of mlmd::ft.
//
//   StepSentinel  per-step finiteness + energy-drift checks. Detection is
//                 policy-free; the caller applies the configured Policy
//                 (abort | rollback to last checkpoint | degrade to the
//                 baseline force model).
//   GuardTripped  what kAbort raises; carries the sentinel's description.
//
// Every detection and recovery increments the ft.faults.detected /
// ft.faults.recovered obs counters so traces and benchjson show the
// recovery cost.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

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
};

/// Per-run detector. Not thread-safe (one sentinel per driving loop).
class StepSentinel {
 public:
  explicit StepSentinel(GuardOptions opt = {});

  const GuardOptions& options() const { return opt_; }

  /// Check every value for finiteness (and |v| <= max_abs when set).
  /// Returns true when clean; on the first offending value records the
  /// detection (obs ft.faults.detected, ft.guard.trips) and remembers a
  /// description retrievable via last_what(). The clean path is the
  /// dispatched simd::any_above scan, block by block.
  bool check_values(const char* what, std::span<const double> v);

  /// The magnitude bits no clean value exceeds: check_values trips on v
  /// exactly when the bits of |v| are above these (simd any_above), so a
  /// caller can prescan where the data lives and call check_values only
  /// for the report.
  std::uint64_t bound_bits() const;

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

} // namespace mlmd::ft
