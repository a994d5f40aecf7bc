#include "mlmd/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mlmd::obs {
namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

} // namespace

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(1e300, std::memory_order_relaxed);
  max_.store(-1e300, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int Histogram::bucket_index(double x) {
  if (!(x > 0.0) || !std::isfinite(x)) return x > 0.0 ? kBuckets - 1 : 0;
  int e = 0;
  const double m = std::frexp(x, &e); // m in [0.5, 1), x = m * 2^e
  const int oct = e - 1 - kMinExp;    // octave [2^(e-1), 2^e) relative to min
  if (oct < 0) return 0;
  if (oct >= kOctaves) return kBuckets - 1;
  // Mantissa quarters on the log scale: 2^{-1,-3/4,-1/2,-1/4}.
  int sub = 0;
  if (m >= 0.5946035575013605) sub = 1;   // 2^(-3/4)
  if (m >= 0.7071067811865476) sub = 2;   // 2^(-1/2)
  if (m >= 0.8408964152537145) sub = 3;   // 2^(-1/4)
  return oct * kSubBuckets + sub;
}

double Histogram::bucket_upper(int idx) {
  static const double ub[kSubBuckets] = {0.5946035575013605,
                                         0.7071067811865476,
                                         0.8408964152537145, 1.0};
  return std::ldexp(ub[idx % kSubBuckets], idx / kSubBuckets + 1 + kMinExp);
}

double Histogram::quantile(double q) const {
  q = std::min(1.0, std::max(0.0, q));
  std::uint64_t n = 0;
  std::uint64_t counts[kBuckets];
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    n += counts[i];
  }
  if (n == 0) return 0.0;
  // Rank of the q-th sample, 1-based; q=0 -> first, q=1 -> last.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += counts[i];
    if (cum >= rank)
      return std::min(max(), std::max(min(), bucket_upper(i)));
  }
  return max();
}

Registry& Registry::global() {
  static Registry* r = new Registry; // leaked: instruments may be updated
  return *r;                         // from static destructors at exit
}

Registry::Cell& Registry::cell(std::string_view name, Kind kind) {
  std::lock_guard lk(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    Cell c;
    c.kind = kind;
    switch (kind) {
      case Kind::kCounter: c.c = std::make_unique<Counter>(); break;
      case Kind::kGauge: c.g = std::make_unique<Gauge>(); break;
      case Kind::kHistogram: c.h = std::make_unique<Histogram>(); break;
    }
    it = cells_.emplace(std::string(name), std::move(c)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs::Registry: instrument '" + std::string(name) +
                           "' registered with two kinds");
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return *cell(name, Kind::kCounter).c;
}
Gauge& Registry::gauge(std::string_view name) {
  return *cell(name, Kind::kGauge).g;
}
Histogram& Registry::histogram(std::string_view name) {
  return *cell(name, Kind::kHistogram).h;
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  for (auto& [n, c] : cells_) {
    switch (c.kind) {
      case Kind::kCounter: c.c->reset(); break;
      case Kind::kGauge: c.g->reset(); break;
      case Kind::kHistogram: c.h->reset(); break;
    }
  }
}

std::string Registry::report_json() const {
  std::string cnt, gau, his;
  {
    std::lock_guard lk(mu_);
    for (const auto& [n, c] : cells_) {
      switch (c.kind) {
        case Kind::kCounter:
          if (!cnt.empty()) cnt += ", ";
          cnt += "\"" + n + "\": " + std::to_string(c.c->value());
          break;
        case Kind::kGauge:
          if (!gau.empty()) gau += ", ";
          gau += "\"" + n + "\": ";
          append_double(gau, c.g->value());
          break;
        case Kind::kHistogram: {
          if (!his.empty()) his += ", ";
          his += "\"" + n + "\": {\"count\": " + std::to_string(c.h->count()) +
                 ", \"sum\": ";
          append_double(his, c.h->sum());
          if (c.h->count() > 0) {
            const std::pair<const char*, double> stats[] = {
                {"min", c.h->min()},          {"p50", c.h->quantile(0.50)},
                {"p95", c.h->quantile(0.95)}, {"p99", c.h->quantile(0.99)},
                {"max", c.h->max()}};
            for (const auto& [key, v] : stats) {
              his += ", \"";
              his += key;
              his += "\": ";
              append_double(his, v);
            }
          }
          his += "}";
          break;
        }
      }
    }
  }
  return "{\"counters\": {" + cnt + "}, \"gauges\": {" + gau +
         "}, \"histograms\": {" + his + "}}";
}

std::vector<Registry::CounterSample> Registry::counters_snapshot() const {
  std::vector<CounterSample> out;
  std::lock_guard lk(mu_);
  for (const auto& [n, c] : cells_)
    if (c.kind == Kind::kCounter) out.push_back({n, c.c->value()});
  return out;
}

std::vector<Registry::HistogramSample> Registry::histograms_snapshot(
    std::string_view prefix) const {
  std::vector<HistogramSample> out;
  std::lock_guard lk(mu_);
  for (const auto& [n, c] : cells_) {
    if (c.kind != Kind::kHistogram) continue;
    if (!prefix.empty() &&
        (n.size() < prefix.size() || n.compare(0, prefix.size(), prefix) != 0))
      continue;
    std::vector<std::uint64_t> buckets(Histogram::kBuckets);
    for (int i = 0; i < Histogram::kBuckets; ++i)
      buckets[i] = c.h->buckets_[i].load(std::memory_order_relaxed);
    out.push_back({n, c.h->count(), c.h->sum(), c.h->min(), c.h->max(),
                   std::move(buckets)});
  }
  return out;
}

} // namespace mlmd::obs
