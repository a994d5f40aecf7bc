#include "mlmd/ft/guard.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::ft {

namespace {

/// Values per any_above call: 16 KB, small enough that a trip is found
/// about as early as by a serial scan, large enough to amortize the call.
constexpr std::size_t kScanBlock = 2048;

}  // namespace

Policy parse_policy(const std::string& s) {
  if (s == "abort") return Policy::kAbort;
  if (s == "rollback") return Policy::kRollback;
  if (s == "degrade") return Policy::kDegrade;
  throw std::invalid_argument(
      "parse_policy: '" + s + "' (want abort | rollback | degrade)");
}

StepSentinel::StepSentinel(GuardOptions opt) : opt_(opt) {}

void StepSentinel::record_trip(const char* what, const std::string& detail) {
  ++trips_;
  last_what_ = std::string(what) + ": " + detail;
  auto& reg = obs::Registry::global();
  static auto& detected = reg.counter("ft.faults.detected");
  static auto& trips = reg.counter("ft.guard.trips");
  detected.add(1);
  trips.add(1);
}

std::uint64_t StepSentinel::bound_bits() const {
  // Non-finite values sit above DBL_MAX, and for non-negative doubles
  // |x| > max_abs orders like the bits.
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  return std::bit_cast<std::uint64_t>(
      opt_.max_abs > 0.0 ? std::min(opt_.max_abs, kMaxFinite) : kMaxFinite);
}

bool StepSentinel::check_values(const char* what, std::span<const double> v) {
  if (!opt_.enabled) return true;
  const std::uint64_t bound = bound_bits();
  const simd::AnyAboveFn any_above = simd::kernels().any_above;
  // Blocks of kScanBlock values go through the branch-free scan; only the
  // first flagged block is rescanned value by value, so the first
  // offending index and its message are those of a plain serial scan.
  for (std::size_t b0 = 0; b0 < v.size(); b0 += kScanBlock) {
    const std::size_t b1 = std::min(b0 + kScanBlock, v.size());
    if (!any_above(v.data() + b0, b1 - b0, bound)) continue;
    for (std::size_t i = b0; i < b1; ++i) {
      const double x = v[i];
      if (!std::isfinite(x)) {
        record_trip(what, "non-finite value at index " + std::to_string(i));
        return false;
      }
      if (opt_.max_abs > 0.0 && std::abs(x) > opt_.max_abs) {
        record_trip(what, "|value| " + std::to_string(x) +
                              " exceeds bound at " + std::to_string(i));
        return false;
      }
    }
  }
  return true;
}

bool StepSentinel::check_energy(const char* what, double e) {
  if (!opt_.enabled) return true;
  if (!std::isfinite(e)) {
    record_trip(what, "non-finite energy");
    return false;
  }
  if (!have_ref_) {
    have_ref_ = true;
    e_ref_ = e;
    return true;
  }
  if (opt_.max_energy_drift > 0.0) {
    const double scale = std::max(std::abs(e_ref_), 1.0);
    if (std::abs(e - e_ref_) > opt_.max_energy_drift * scale) {
      record_trip(what, "energy drift |" + std::to_string(e) + " - " +
                            std::to_string(e_ref_) + "| beyond bound");
      return false;
    }
  }
  return true;
}

} // namespace mlmd::ft
