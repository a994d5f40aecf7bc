#pragma once
// Deterministic fault injection (DESIGN.md Sec. 10). Production-scale
// MLMD runs outlive the hardware MTBF; to test the recovery machinery we
// inject the faults on purpose, seeded and replayable:
//
//   rank_crash@step=40,rank=2        a SimComm rank dies (fatal throw)
//   bitflip@step=12,rank=1,seed=9    one bit flipped in a collective
//                                    payload in transit
//   nan_force@step=25                a NaN written into the force array
//   inf_field@step=25                an Inf written into a field array
//   stall@rank=1,ms=500              the rank sleeps 500 ms at a comm/
//                                    scheduler entry (a wedged peer; with
//                                    a progress timeout armed the blocked
//                                    peers unwind with StallError)
//   slow_rank@rank=1,ms=2,count=50   a straggler: small per-op delay
//                                    (graceful degradation, never an error)
//   drop_doorbell@rank=0,count=4     the shm sender skips its condvar
//                                    doorbell; parked receivers recover
//                                    via the bounded park slices
//
// Entries are ';'-separated; every entry fires at most `count` times
// (default 1), so a rollback that replays the faulty step converges.
// A parsed FaultPlan is armed process-globally (ft::arm); every hook
// site compiles to a single relaxed atomic load when no plan is armed.
//
// Step tracking: the driving loop calls ft::set_step(s); hooks that sit
// below the step loop (SimComm) read that global step, hooks inside the
// loop receive the step explicitly.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mlmd/common/rng.hpp"

namespace mlmd::ft {

/// Fatal injected rank death. Never retried: the surviving ranks unwind
/// via SimComm abort-poisoning and the run is expected to restart from a
/// checkpoint.
class InjectedCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A progress deadline expired while blocked in a transport wait (peer
/// stall, lost doorbell, wedged collective). Retrying the blocked op
/// against a wedged peer would just stall again — the caller decides
/// whether to degrade, checkpoint, or abort. Thrown by both SimComm
/// backends when par::progress_timeout() is armed (DESIGN.md Sec. 15).
class StallError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kRankCrash,
  kBitFlip,
  kNanForce,
  kInfField,
  kStall,        ///< rank sleeps spec.ms at a hook site (wedged peer)
  kSlowRank,     ///< rank sleeps spec.ms per op (straggler / degrade)
  kDropDoorbell, ///< shm sender skips its condvar doorbell broadcast
};

/// One parsed fault entry. `step` < 0 means "any step"; `rank` < 0 means
/// "any rank"; `p` is the per-opportunity firing probability (seeded);
/// `count` bounds total firings.
struct FaultSpec {
  FaultKind kind = FaultKind::kNanForce;
  long step = -1;
  int rank = -1;
  double p = 1.0;
  std::uint64_t seed = 1;
  long count = 1;
  /// Injected delay in milliseconds (stall / slow_rank); < 0 selects the
  /// kind default: 250 ms for stall, 2 ms for slow_rank.
  double ms = -1.0;
};

/// A deterministic, replayable schedule of faults. Thread-safe: hooks are
/// called concurrently from SimComm rank threads.
class FaultPlan {
 public:
  explicit FaultPlan(std::vector<FaultSpec> specs);

  // Movable (parse_faults returns by value, arm() takes by value) despite
  // the mutex/atomic members; moving a plan that hooks are concurrently
  // firing into is not supported — arm/disarm between runs.
  FaultPlan(FaultPlan&& other) noexcept;
  FaultPlan& operator=(FaultPlan&&) = delete;
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  const std::vector<FaultSpec>& specs() const { return specs_; }

  /// Current step as published by set_step() (drives the SimComm hooks).
  long current_step() const { return step_.load(std::memory_order_relaxed); }
  void set_step(long s) { step_.store(s, std::memory_order_relaxed); }

  /// SimComm entry hook: throws InjectedCrash when a matching rank_crash
  /// entry fires for `rank` at the current step.
  void on_comm(int rank);
  /// SimComm payload hook: flips one seeded bit of `payload` when a
  /// matching bitflip entry fires. Returns true if a flip happened.
  bool on_payload(int rank, std::span<std::byte> payload);
  /// Step-loop hooks: overwrite one seeded element with NaN (forces) or
  /// +Inf (fields) when a matching entry fires at `step`. Return true on
  /// injection.
  bool on_forces(long step, double* f, std::size_t n);
  bool on_fields(long step, double* v, std::size_t n);
  /// Liveness-chaos hook (transport op entries, serve scheduler rounds):
  /// total injected delay in seconds for `rank` at the current step, from
  /// matching stall / slow_rank entries. The CALLER sleeps — the plan
  /// mutex is never held across the delay.
  double on_delay(int rank);
  /// shm doorbell hook: true when a drop_doorbell entry fires for `rank`
  /// (the sender skips its condvar broadcast for this message).
  bool on_doorbell(int rank);

  /// Total number of faults this plan has fired so far.
  long fired() const;

 private:
  struct Armed {
    FaultSpec spec;
    long remaining;
    mlmd::Rng rng;
  };

  /// Returns true (and consumes one firing) if `a` fires for step/rank.
  bool fires(Armed& a, long step, int rank);

  std::vector<FaultSpec> specs_;
  std::atomic<long> step_{0};
  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  long fired_ = 0;
};

/// Parse a fault spec string ("kind@k=v,k=v;kind@..."). Throws
/// std::invalid_argument on unknown kinds/keys or malformed syntax. An
/// empty spec yields an empty plan.
FaultPlan parse_faults(const std::string& spec);

namespace detail {
extern std::atomic<FaultPlan*> g_plan;
void comm_hook_slow(int rank);
bool payload_hook_slow(int rank, std::span<std::byte> payload);
bool forces_hook_slow(long step, double* f, std::size_t n);
bool fields_hook_slow(long step, double* v, std::size_t n);
double delay_hook_slow(int rank);
bool doorbell_hook_slow(int rank);
void set_step_slow(long step);
} // namespace detail

/// True when a fault plan is armed. The entire disabled-mode cost of a
/// hook site is this one relaxed load.
inline bool armed() {
  return detail::g_plan.load(std::memory_order_relaxed) != nullptr;
}

/// Arm `plan` process-globally (replaces any armed plan). The plan is
/// copied into a process-lifetime slot; pointers handed out by
/// active_plan() stay valid until the next arm()/disarm().
void arm(FaultPlan plan);
/// Remove the armed plan; every hook site returns to the no-op branch.
void disarm();
/// The armed plan, or nullptr.
FaultPlan* active_plan();

/// Hook sites (inline fast path; see FaultPlan for semantics).
inline void hook_comm(int rank) {
  if (armed()) detail::comm_hook_slow(rank);
}
inline bool hook_payload(int rank, std::span<std::byte> payload) {
  return armed() ? detail::payload_hook_slow(rank, payload) : false;
}
inline bool hook_forces(long step, double* f, std::size_t n) {
  return armed() ? detail::forces_hook_slow(step, f, n) : false;
}
inline bool hook_fields(long step, double* v, std::size_t n) {
  return armed() ? detail::fields_hook_slow(step, v, n) : false;
}
/// Injected stall/slow_rank delay in seconds for `rank` (0 when none
/// fires); the caller sleeps. `rank` < 0 matches any-rank entries only
/// from rank-agnostic sites (the serve scheduler).
inline double hook_delay(int rank) {
  return armed() ? detail::delay_hook_slow(rank) : 0.0;
}
/// True when an armed drop_doorbell entry fires for `rank`.
inline bool hook_drop_doorbell(int rank) {
  return armed() ? detail::doorbell_hook_slow(rank) : false;
}
/// Publish the driving loop's step counter for the SimComm hooks.
inline void set_step(long step) {
  if (armed()) detail::set_step_slow(step);
}

/// RAII arm/disarm (tests): arms on construction, disarms on scope exit.
class ScopedFaults {
 public:
  explicit ScopedFaults(FaultPlan plan) { arm(std::move(plan)); }
  explicit ScopedFaults(const std::string& spec) { arm(parse_faults(spec)); }
  ~ScopedFaults() { disarm(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

} // namespace mlmd::ft
