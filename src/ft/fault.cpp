#include "mlmd/ft/fault.hpp"

#include <cmath>
#include <limits>
#include <memory>

#include "mlmd/obs/metrics.hpp"

namespace mlmd::ft {
namespace {

obs::Counter& injected_counter() {
  static auto& c = obs::Registry::global().counter("ft.faults.injected");
  return c;
}

/// Split "key=value" around '='; throws on missing '='.
std::pair<std::string, std::string> split_kv(const std::string& kv,
                                             const std::string& entry) {
  const auto eq = kv.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument("parse_faults: bad key=value '" + kv +
                                "' in '" + entry + "'");
  return {kv.substr(0, eq), kv.substr(eq + 1)};
}

FaultSpec parse_entry(const std::string& entry) {
  const auto at = entry.find('@');
  const std::string kind = entry.substr(0, at);
  FaultSpec s;
  if (kind == "rank_crash") s.kind = FaultKind::kRankCrash;
  else if (kind == "bitflip") s.kind = FaultKind::kBitFlip;
  else if (kind == "nan_force") s.kind = FaultKind::kNanForce;
  else if (kind == "inf_field") s.kind = FaultKind::kInfField;
  else if (kind == "stall") s.kind = FaultKind::kStall;
  else if (kind == "slow_rank") s.kind = FaultKind::kSlowRank;
  else if (kind == "drop_doorbell") s.kind = FaultKind::kDropDoorbell;
  else
    throw std::invalid_argument("parse_faults: unknown fault kind '" + kind +
                                "'");
  if (at == std::string::npos) return s;

  std::string rest = entry.substr(at + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const auto comma = rest.find(',', pos);
    const std::string kv = rest.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (kv.empty())
      throw std::invalid_argument("parse_faults: empty parameter in '" +
                                  entry + "'");
    auto [key, value] = split_kv(kv, entry);
    // stoX wrappers that fail loudly on trailing junk or non-numbers.
    auto bad_value = [&]() -> std::invalid_argument {
      return std::invalid_argument("parse_faults: bad value '" + value +
                                   "' for key '" + key + "' in '" + entry +
                                   "'");
    };
    auto as_long = [&] {
      std::size_t used = 0;
      long out = 0;
      try {
        out = std::stol(value, &used);
      } catch (...) {
        throw bad_value();
      }
      if (used != value.size()) throw bad_value();
      return out;
    };
    auto as_double = [&] {
      std::size_t used = 0;
      double out = 0;
      try {
        out = std::stod(value, &used);
      } catch (...) {
        throw bad_value();
      }
      if (used != value.size()) throw bad_value();
      return out;
    };
    if (key == "step") s.step = as_long();
    else if (key == "rank") s.rank = static_cast<int>(as_long());
    else if (key == "p") s.p = as_double();
    else if (key == "seed") s.seed = static_cast<std::uint64_t>(as_long());
    else if (key == "count") s.count = as_long();
    else if (key == "ms") s.ms = as_double();
    else
      throw std::invalid_argument("parse_faults: unknown key '" + key +
                                  "' in '" + entry + "'");
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (s.p < 0.0 || s.p > 1.0)
    throw std::invalid_argument("parse_faults: p must be in [0,1] in '" +
                                entry + "'");
  if (s.count < 1)
    throw std::invalid_argument("parse_faults: count must be >= 1 in '" +
                                entry + "'");
  if (s.ms >= 0.0 && s.kind != FaultKind::kStall &&
      s.kind != FaultKind::kSlowRank)
    throw std::invalid_argument(
        "parse_faults: key 'ms' only applies to stall/slow_rank in '" + entry +
        "'");
  return s;
}

} // namespace

FaultPlan parse_faults(const std::string& spec) {
  std::vector<FaultSpec> specs;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    std::string entry = spec.substr(pos, semi - pos);
    // Trim surrounding whitespace.
    const auto b = entry.find_first_not_of(" \t");
    const auto e = entry.find_last_not_of(" \t");
    if (b != std::string::npos)
      specs.push_back(parse_entry(entry.substr(b, e - b + 1)));
    pos = semi + 1;
  }
  return FaultPlan(std::move(specs));
}

FaultPlan::FaultPlan(std::vector<FaultSpec> specs) : specs_(std::move(specs)) {
  armed_.reserve(specs_.size());
  for (const auto& s : specs_)
    armed_.push_back(Armed{s, s.count, mlmd::Rng(s.seed)});
}

FaultPlan::FaultPlan(FaultPlan&& other) noexcept {
  std::lock_guard lk(other.mu_);
  specs_ = std::move(other.specs_);
  armed_ = std::move(other.armed_);
  fired_ = other.fired_;
  step_.store(other.step_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

bool FaultPlan::fires(Armed& a, long step, int rank) {
  // Caller holds mu_.
  if (a.remaining <= 0) return false;
  if (a.spec.step >= 0 && step != a.spec.step) return false;
  if (a.spec.rank >= 0 && rank >= 0 && rank != a.spec.rank) return false;
  if (a.spec.p < 1.0 && a.rng.uniform() >= a.spec.p) return false;
  --a.remaining;
  ++fired_;
  injected_counter().add(1);
  return true;
}

void FaultPlan::on_comm(int rank) {
  const long step = current_step();
  std::lock_guard lk(mu_);
  for (auto& a : armed_) {
    if (a.spec.kind == FaultKind::kRankCrash && fires(a, step, rank))
      throw InjectedCrash("injected rank_crash on rank " +
                          std::to_string(rank) + " at step " +
                          std::to_string(step));
  }
}

bool FaultPlan::on_payload(int rank, std::span<std::byte> payload) {
  if (payload.empty()) return false;
  const long step = current_step();
  std::lock_guard lk(mu_);
  for (auto& a : armed_) {
    if (a.spec.kind != FaultKind::kBitFlip) continue;
    if (!fires(a, step, rank)) continue;
    const std::size_t bit = a.rng.index(payload.size() * 8);
    payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    return true;
  }
  return false;
}

bool FaultPlan::on_forces(long step, double* f, std::size_t n) {
  if (n == 0) return false;
  std::lock_guard lk(mu_);
  bool hit = false;
  for (auto& a : armed_) {
    if (a.spec.kind != FaultKind::kNanForce) continue;
    if (!fires(a, step, -1)) continue;
    f[a.rng.index(n)] = std::numeric_limits<double>::quiet_NaN();
    hit = true;
  }
  return hit;
}

bool FaultPlan::on_fields(long step, double* v, std::size_t n) {
  if (n == 0) return false;
  std::lock_guard lk(mu_);
  bool hit = false;
  for (auto& a : armed_) {
    if (a.spec.kind != FaultKind::kInfField) continue;
    if (!fires(a, step, -1)) continue;
    v[a.rng.index(n)] = std::numeric_limits<double>::infinity();
    hit = true;
  }
  return hit;
}

double FaultPlan::on_delay(int rank) {
  const long step = current_step();
  std::lock_guard lk(mu_);
  double seconds = 0.0;
  for (auto& a : armed_) {
    const bool stall = a.spec.kind == FaultKind::kStall;
    if (!stall && a.spec.kind != FaultKind::kSlowRank) continue;
    if (!fires(a, step, rank)) continue;
    const double dflt_ms = stall ? 250.0 : 2.0;
    seconds += (a.spec.ms >= 0.0 ? a.spec.ms : dflt_ms) * 1e-3;
  }
  return seconds;
}

bool FaultPlan::on_doorbell(int rank) {
  const long step = current_step();
  std::lock_guard lk(mu_);
  bool hit = false;
  for (auto& a : armed_) {
    if (a.spec.kind != FaultKind::kDropDoorbell) continue;
    if (fires(a, step, rank)) hit = true;
  }
  return hit;
}

long FaultPlan::fired() const {
  std::lock_guard lk(mu_);
  return fired_;
}

namespace detail {

std::atomic<FaultPlan*> g_plan{nullptr};

namespace {
// The armed plan lives here; arm() swaps the slot under a mutex so a
// replaced plan is destroyed only after the pointer is unpublished.
// (Hooks dereference the pointer they loaded; arming a new plan while
// rank threads are mid-hook is not supported — arm/disarm between runs.)
std::mutex g_arm_mu;
std::unique_ptr<FaultPlan> g_owned;
} // namespace

void comm_hook_slow(int rank) {
  if (auto* p = g_plan.load(std::memory_order_acquire)) p->on_comm(rank);
}
bool payload_hook_slow(int rank, std::span<std::byte> payload) {
  auto* p = g_plan.load(std::memory_order_acquire);
  return p ? p->on_payload(rank, payload) : false;
}
bool forces_hook_slow(long step, double* f, std::size_t n) {
  auto* p = g_plan.load(std::memory_order_acquire);
  return p ? p->on_forces(step, f, n) : false;
}
bool fields_hook_slow(long step, double* v, std::size_t n) {
  auto* p = g_plan.load(std::memory_order_acquire);
  return p ? p->on_fields(step, v, n) : false;
}
double delay_hook_slow(int rank) {
  auto* p = g_plan.load(std::memory_order_acquire);
  return p ? p->on_delay(rank) : 0.0;
}
bool doorbell_hook_slow(int rank) {
  auto* p = g_plan.load(std::memory_order_acquire);
  return p ? p->on_doorbell(rank) : false;
}
void set_step_slow(long step) {
  if (auto* p = g_plan.load(std::memory_order_acquire)) p->set_step(step);
}

} // namespace detail

void arm(FaultPlan plan) {
  std::lock_guard lk(detail::g_arm_mu);
  detail::g_plan.store(nullptr, std::memory_order_release);
  detail::g_owned = std::make_unique<FaultPlan>(std::move(plan));
  detail::g_plan.store(detail::g_owned.get(), std::memory_order_release);
}

void disarm() {
  std::lock_guard lk(detail::g_arm_mu);
  detail::g_plan.store(nullptr, std::memory_order_release);
  detail::g_owned.reset();
}

FaultPlan* active_plan() {
  return detail::g_plan.load(std::memory_order_acquire);
}

} // namespace mlmd::ft
