#include "mlmd/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>

#include "mlmd/obs/metrics.hpp"

namespace mlmd::obs {
namespace {

using clock_type = std::chrono::steady_clock;

// Fixed ring capacity per thread: 64Ki spans x 32 B = 2 MiB. Drop-newest
// on overflow keeps already-published slots immutable, which is what makes
// the lock-free reader protocol below correct.
constexpr std::size_t kRingCap = 1u << 16;

struct ThreadBuf {
  std::vector<SpanEvent> ring;
  std::atomic<std::size_t> head{0}; ///< published span count (<= kRingCap)
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid = 0;
  std::uint32_t depth = 0; ///< owner-thread-only nesting counter
};

// Registry of every thread's buffer. Buffers are owned here (shared_ptr)
// so they survive thread exit: flushing after mlmd::par::run() joins its
// rank threads still sees all rank spans.
struct BufRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
};

BufRegistry& registry() {
  static BufRegistry* r = new BufRegistry; // intentionally leaked: spans
  return *r;                               // may be recorded during exit
}

std::atomic<bool> g_epoch_set{false};
clock_type::time_point g_epoch;
std::mutex g_epoch_mu;

ThreadBuf& local_buf() {
  thread_local ThreadBuf* tb = [] {
    auto b = std::make_shared<ThreadBuf>();
    b->ring.resize(kRingCap);
    auto& r = registry();
    std::lock_guard lk(r.mu);
    b->tid = static_cast<std::uint32_t>(r.bufs.size());
    r.bufs.push_back(b);
    return b.get();
  }();
  return *tb;
}

// Owner-thread-only depth counter, reachable without touching the ring.
thread_local std::uint32_t tl_depth = 0;

void append_escaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
}

} // namespace

std::atomic<bool> Tracer::g_enabled{false};

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kStep: return "step";
    case Cat::kPhase: return "phase";
    case Cat::kKernel: return "kernel";
    case Cat::kComm: return "comm";
    case Cat::kTask: return "task";
  }
  return "?";
}

void Tracer::enable(bool on) {
  if (on && !g_epoch_set.load(std::memory_order_acquire)) {
    std::lock_guard lk(g_epoch_mu);
    if (!g_epoch_set.load(std::memory_order_relaxed)) {
      g_epoch = clock_type::now();
      g_epoch_set.store(true, std::memory_order_release);
    }
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_type::now().time_since_epoch())
          .count());
}

void ObsScope::observe_seconds(Histogram& h, std::uint64_t t0_ns) {
  h.observe(static_cast<double>(mono_ns() - t0_ns) * 1e-9);
}

std::uint64_t Tracer::now_ns() {
  if (!g_epoch_set.load(std::memory_order_acquire)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() -
                                                           g_epoch)
          .count());
}

std::uint32_t Tracer::enter_depth() { return tl_depth++; }
void Tracer::exit_depth() {
  if (tl_depth > 0) --tl_depth;
}

void Tracer::record(const char* name, Cat cat, std::uint64_t t0_ns,
                    std::uint64_t dur_ns, std::uint32_t depth) {
  if (!enabled()) return;
  ThreadBuf& b = local_buf();
  const std::size_t h = b.head.load(std::memory_order_relaxed);
  if (h >= kRingCap) {
    b.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent& e = b.ring[h];
  e.name = name;
  e.t0_ns = t0_ns;
  e.dur_ns = dur_ns;
  e.tid = b.tid;
  e.depth = depth;
  e.cat = cat;
  // Publish: readers acquire-load head and only read slots below it.
  b.head.store(h + 1, std::memory_order_release);
}

void Tracer::clear() {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  for (auto& b : r.bufs) {
    b->head.store(0, std::memory_order_release);
    b->dropped.store(0, std::memory_order_relaxed);
  }
}

std::vector<SpanEvent> Tracer::snapshot() {
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    auto& r = registry();
    std::lock_guard lk(r.mu);
    bufs = r.bufs;
  }
  std::vector<SpanEvent> out;
  for (const auto& b : bufs) {
    const std::size_t h = b->head.load(std::memory_order_acquire);
    out.insert(out.end(), b->ring.begin(),
               b->ring.begin() + static_cast<std::ptrdiff_t>(h));
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.depth < b.depth;
  });
  return out;
}

std::uint64_t Tracer::span_count() {
  std::uint64_t n = 0;
  auto& r = registry();
  std::lock_guard lk(r.mu);
  for (const auto& b : r.bufs) n += b->head.load(std::memory_order_acquire);
  return n;
}

std::uint64_t Tracer::dropped() {
  std::uint64_t n = 0;
  auto& r = registry();
  std::lock_guard lk(r.mu);
  for (const auto& b : r.bufs) n += b->dropped.load(std::memory_order_relaxed);
  return n;
}

std::size_t Tracer::thread_buffer_count() {
  auto& r = registry();
  std::lock_guard lk(r.mu);
  return r.bufs.size();
}

double Tracer::summed_seconds(const std::string& prefix) {
  double s = 0.0;
  for (const auto& e : snapshot())
    if (std::string_view(e.name).substr(0, prefix.size()) == prefix)
      s += static_cast<double>(e.dur_ns) * 1e-9;
  return s;
}

bool Tracer::write_chrome_trace(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  const auto events = snapshot();
  std::string line;
  std::fprintf(fp, "[\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    line.clear();
    line += "  {\"name\": \"";
    append_escaped(line, e.name);
    line += "\", \"cat\": \"";
    line += cat_name(e.cat);
    line += "\", \"ph\": \"X\"";
    char num[160];
    std::snprintf(num, sizeof num,
                  ", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %u, "
                  "\"args\": {\"depth\": %u}}",
                  static_cast<double>(e.t0_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, e.tid, e.depth);
    line += num;
    if (i + 1 < events.size()) line += ',';
    line += '\n';
    std::fputs(line.c_str(), fp);
  }
  std::fprintf(fp, "]\n");
  std::fclose(fp);
  return true;
}

} // namespace mlmd::obs
