#include <algorithm>

#include "bench.hpp"

namespace e2e {
namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `iv`, each clipped to [lo, hi).
std::uint64_t union_within(std::vector<Interval>& iv, std::uint64_t lo,
                           std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur0 = 0, cur1 = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur1) {
      cur1 = std::max(cur1, b);
      continue;
    }
    if (open) total += cur1 - cur0;
    cur0 = a;
    cur1 = b;
    open = true;
  }
  if (open) total += cur1 - cur0;
  return total;
}

} // namespace

int SpanLog::open(const char* name, long scenario) {
  Span s;
  s.name = name;
  s.scenario = scenario;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.t0 = mlmd::obs::Tracer::now_ns();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int i) {
  at(i).t1 = mlmd::obs::Tracer::now_ns();
  stack_.pop_back();
}

double SpanLog::seconds(const std::string& name) const {
  double s = 0.0;
  for (const auto& sp : spans_)
    if (name == sp.name) s += sp.seconds();
  return s;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& sp) { return name == sp.name; }));
}

double SpanLog::cells(const std::string& name) const {
  double c = 0.0;
  for (const auto& sp : spans_)
    if (name == sp.name) c += sp.cells;
  return c;
}

double SpanLog::flops(const std::string& name) const {
  double f = 0.0;
  for (const auto& sp : spans_)
    if (name == sp.name) f += sp.flops;
  return f;
}

double SpanLog::covered_by_children(
    const std::string& name, const std::vector<std::string>& children) const {
  std::vector<std::vector<Interval>> kids(spans_.size());
  for (const auto& sp : spans_) {
    if (sp.parent < 0) continue;
    const bool wanted =
        children.empty() ||
        std::find(children.begin(), children.end(), sp.name) != children.end();
    if (wanted)
      kids[static_cast<std::size_t>(sp.parent)].emplace_back(sp.t0, sp.t1);
  }
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name)
      ns += union_within(kids[i], spans_[i].t0, spans_[i].t1);
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::covered_by_program(const std::string& name,
                                   const std::vector<mlmd::obs::SpanEvent>& ev,
                                   const std::string& prefix) const {
  std::vector<Interval> prog;
  std::uint64_t longest = 0;
  for (const auto& e : ev)
    if (std::string_view(e.name).starts_with(prefix)) {
      prog.emplace_back(e.t0_ns, e.t0_ns + e.dur_ns);
      longest = std::max(longest, e.dur_ns);
    }
  std::sort(prog.begin(), prog.end());
  std::uint64_t ns = 0;
  std::vector<Interval> inside;
  for (const auto& sp : spans_) {
    if (name != sp.name) continue;
    const std::uint64_t from = sp.t0 > longest ? sp.t0 - longest : 0;
    auto it = std::lower_bound(prog.begin(), prog.end(), Interval{from, 0});
    inside.clear();
    for (; it != prog.end() && it->first < sp.t1; ++it) inside.push_back(*it);
    ns += union_within(inside, sp.t0, sp.t1);
  }
  return static_cast<double>(ns) * 1e-9;
}

} // namespace e2e
