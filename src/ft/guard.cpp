#include "mlmd/ft/guard.hpp"

#include <algorithm>
#include <cmath>

#include "mlmd/obs/metrics.hpp"

namespace mlmd::ft {

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

bool StepSentinel::check_values(const char* what, std::span<const double> v) {
  if (!opt_.enabled) return true;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double x = v[i];
    if (!std::isfinite(x)) {
      record_trip(what, "non-finite value at index " + std::to_string(i));
      return false;
    }
    if (opt_.max_abs > 0.0 && std::abs(x) > opt_.max_abs) {
      record_trip(what, "|value| " + std::to_string(x) + " exceeds bound at " +
                            std::to_string(i));
      return false;
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
