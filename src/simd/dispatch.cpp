#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "mlmd/simd/simd.hpp"
#include "tables.hpp"

namespace mlmd::simd {
namespace {

constexpr std::size_t kNumTargets = 3;

const KernelTable* compiled_table(Target t) {
  switch (t) {
    case Target::kScalar: return detail::scalar_table();
    case Target::kAvx2: return detail::avx2_table();
    case Target::kAvx512: return detail::avx512_table();
  }
  return nullptr;
}

bool isa_ok(Target t) {
  const Caps& c = caps();
  switch (t) {
    case Target::kScalar: return true;
    case Target::kAvx2: return c.avx2 && c.os_avx;
    case Target::kAvx512:
      return c.avx512f && c.avx512bw && c.avx512vl && c.os_avx512;
  }
  return false;
}

std::string supported_list() {
  std::string s;
  for (Target t : supported_targets()) {
    if (!s.empty()) s += ", ";
    s += target_name(t);
  }
  return s;
}

/// Resolved dispatch state: value copies of the available compiled
/// tables plus the active-table pointer.
struct Dispatch {
  KernelTable tables[kNumTargets];
  bool avail[kNumTargets] = {};
  std::atomic<const KernelTable*> active{nullptr};
};

Dispatch& dispatch() {
  static Dispatch d;
  // Separate flag so a throwing MLMD_SIMD resolve (unknown/unsupported
  // value) propagates to the caller and is retried on the next call
  // instead of leaving a half-initialized singleton.
  static const bool init = [] {
    for (std::size_t i = 0; i < kNumTargets; ++i) {
      const Target t = static_cast<Target>(i);
      const KernelTable* ct = compiled_table(t);
      if (!ct || !isa_ok(t)) continue;
      d.tables[i] = *ct;
      d.avail[i] = true;
    }
    Target chosen = best_supported();
    if (const char* e = std::getenv("MLMD_SIMD"); e && *e) {
      const Target req = parse_target(e);  // throws on unknown names
      if (!d.avail[static_cast<std::size_t>(req)])
        throw std::runtime_error(
            std::string("MLMD_SIMD=") + e +
            " requested but this host/build supports only: " +
            supported_list());
      chosen = req;
    }
    d.active.store(&d.tables[static_cast<std::size_t>(chosen)],
                   std::memory_order_release);
    return true;
  }();
  (void)init;
  return d;
}

}  // namespace

bool target_supported(Target t) {
  return compiled_table(t) != nullptr && isa_ok(t);
}

std::vector<Target> supported_targets() {
  std::vector<Target> out;
  for (std::size_t i = 0; i < kNumTargets; ++i)
    if (target_supported(static_cast<Target>(i)))
      out.push_back(static_cast<Target>(i));
  return out;
}

Target best_supported() {
  Target best = Target::kScalar;
  for (std::size_t i = 0; i < kNumTargets; ++i)
    if (target_supported(static_cast<Target>(i)))
      best = static_cast<Target>(i);
  return best;
}

Target parse_target(const std::string& name) {
  if (name == "native") return best_supported();
  for (const auto& [n, t] : kTargetChoices)
    if (name == n) return t;
  throw std::invalid_argument("unknown simd target '" + name +
                              "' (expected scalar|avx2|avx512|native)");
}

const char* target_name(Target t) {
  switch (t) {
    case Target::kScalar: return "scalar";
    case Target::kAvx2: return "avx2";
    case Target::kAvx512: return "avx512";
  }
  return "?";
}

Target active_target() {
  return dispatch().active.load(std::memory_order_acquire)->target;
}

void set_target(Target t) {
  Dispatch& d = dispatch();
  if (!d.avail[static_cast<std::size_t>(t)])
    throw std::runtime_error(
        std::string("simd target '") + target_name(t) +
        "' is not supported on this host/build (supported: " +
        supported_list() + ")");
  d.active.store(&d.tables[static_cast<std::size_t>(t)],
                 std::memory_order_release);
}

const KernelTable& kernels() {
  return *dispatch().active.load(std::memory_order_acquire);
}

}  // namespace mlmd::simd
