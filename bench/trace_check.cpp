// trace_check — validator for the two JSON artifacts the benches emit
// (ctest -L benchsmoke / -L obs):
//
//   trace_check <file.json>
//
// * A Chrome trace-event file (what --trace=/MLMD_TRACE writes) must be a
//   top-level ARRAY of complete events: every element an object with a
//   string "name", "ph" == "X", numeric "ts"/"dur"/"pid"/"tid". That is
//   exactly the shape chrome://tracing and Perfetto accept.
// * A bench --json file (benchjson schema v3, bench/bench_json.hpp) must
//   be an OBJECT with "schema_version" 3, a "records" array and a
//   "registry" object (obs::Registry::report_json()).
//   - Every record carries kernel/gflops/bytes_alloc/seconds/comm_bytes/
//     comm_seconds/comm_overlap_seconds/handles_posted/handles_completed/
//     span_count; handles_completed must equal handles_posted (no leaked
//     nonblocking CommHandles) and comm_overlap_seconds must be >= 0, and
//     exactly 0 when handles_posted is 0.
//   - Every registry counter is a non-negative integer and every gauge a
//     number. Every histogram has count and sum and, once it has samples,
//     min <= p50 <= p95 <= p99 <= max; a quantile whose rank
//     max(1, ceil(q * count)) is the last sample must equal max (a smaller
//     value means bucket counts were lost on the way).
//   - Every lane family "X.t<k>" sums to its base "X": counter values, or
//     histogram counts.
//   - The rows of kInvariants (below) hold.
//   - In a transport-tagged file, which holds one record per rank of one
//     mini-run, the records' handles_posted and comm_bytes sum to the
//     registry's simcomm.handles.posted and simcomm.*.bytes.
//
// The file kind is detected from the top-level value. Exit 0 on a valid
// file (a one-line summary is printed), 1 on any structural violation.
// The parser is a self-contained recursive-descent JSON reader — no
// third-party dependency, which is the point: it proves the emitters
// produce well-formed JSON without trusting the emitters' own printf.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace {

struct Value;
using ValuePtr = std::unique_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<ValuePtr> arr;
  std::map<std::string, ValuePtr> obj;
};

class Parser {
public:
  Parser(const char* s, std::size_t n) : p_(s), end_(s + n) {}

  ValuePtr parse() {
    auto v = value();
    skip_ws();
    if (p_ != end_) fail("trailing data after top-level value");
    return v;
  }

  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }

private:
  [[noreturn]] void fail(const std::string& why) {
    err_ = why;
    throw std::string(why);
  }
  void skip_ws() {
    while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  char peek() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  ValuePtr value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  ValuePtr object() {
    expect('{');
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kObject;
    if (peek() == '}') {
      ++p_;
      return v;
    }
    while (true) {
      auto key = string_value();
      expect(':');
      v->obj.emplace(key->str, value());
      const char c = peek();
      if (c == ',') {
        ++p_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  ValuePtr array() {
    expect('[');
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kArray;
    if (peek() == ']') {
      ++p_;
      return v;
    }
    while (true) {
      v->arr.push_back(value());
      const char c = peek();
      if (c == ',') {
        ++p_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  ValuePtr string_value() {
    expect('"');
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kString;
    while (true) {
      if (p_ == end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return v;
      if (c == '\\') {
        if (p_ == end_) fail("bad escape");
        const char e = *p_++;
        switch (e) {
          case '"': v->str += '"'; break;
          case '\\': v->str += '\\'; break;
          case '/': v->str += '/'; break;
          case 'n': v->str += '\n'; break;
          case 't': v->str += '\t'; break;
          case 'r': v->str += '\r'; break;
          case 'b': v->str += '\b'; break;
          case 'f': v->str += '\f'; break;
          case 'u': {
            // \uXXXX: validate hex, keep the raw escape (names are ASCII).
            for (int i = 0; i < 4; ++i) {
              if (p_ == end_ ||
                  !std::isxdigit(static_cast<unsigned char>(*p_)))
                fail("bad \\u escape");
              ++p_;
            }
            v->str += '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        v->str += c;
      }
    }
  }

  ValuePtr boolean() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kBool;
    if (end_ - p_ >= 4 && std::string(p_, p_ + 4) == "true") {
      v->b = true;
      p_ += 4;
    } else if (end_ - p_ >= 5 && std::string(p_, p_ + 5) == "false") {
      v->b = false;
      p_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  ValuePtr null() {
    if (end_ - p_ < 4 || std::string(p_, p_ + 4) != "null") fail("bad literal");
    p_ += 4;
    return std::make_unique<Value>();
  }

  ValuePtr number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_));
      ++p_;
    }
    if (!digits) fail("bad number");
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kNumber;
    v->num = std::strtod(std::string(start, p_).c_str(), nullptr);
    return v;
  }

  const char* p_;
  const char* end_;
  std::string err_;
};

const Value* field(const Value& obj, const char* key, Value::Kind kind) {
  auto it = obj.obj.find(key);
  if (it == obj.obj.end() || it->second->kind != kind) return nullptr;
  return it->second.get();
}

// Prints "trace_check: <message>" to stderr; returns the failing exit code.
[[gnu::format(printf, 1, 2)]] int fail(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("trace_check: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
  return 1;
}

int check_trace(const Value& root) {
  double total_us = 0.0;
  for (std::size_t i = 0; i < root.arr.size(); ++i) {
    const Value& ev = *root.arr[i];
    if (ev.kind != Value::Kind::kObject)
      return fail("event %zu is not an object", i);
    const Value* ph = field(ev, "ph", Value::Kind::kString);
    if (!field(ev, "name", Value::Kind::kString) || !ph || ph->str != "X" ||
        !field(ev, "ts", Value::Kind::kNumber) ||
        !field(ev, "dur", Value::Kind::kNumber) ||
        !field(ev, "pid", Value::Kind::kNumber) ||
        !field(ev, "tid", Value::Kind::kNumber))
      return fail("event %zu lacks a complete-event shape "
                  "(name/ph=X/ts/dur/pid/tid)",
                  i);
    total_us += field(ev, "dur", Value::Kind::kNumber)->num;
  }
  std::printf("trace_check: OK, %zu complete events, %.3f ms total span time\n",
              root.arr.size(), total_us / 1e3);
  return 0;
}

// How the registry's instruments relate. An operand is a counter or gauge
// name, or "<histogram>:count" / "<histogram>:sum". A row whose operands
// are both absent is skipped; a single absent operand reads 0.
struct Invariant {
  const char* lhs;
  const char* rel; // "<=", "==", or "=>" (lhs > 0 implies rhs > 0)
  const char* rhs;
};
constexpr Invariant kInvariants[] = {
    {"ft.faults.recovered", "<=", "ft.faults.detected"}, // DESIGN.md Sec. 10
    {"simcomm.handles.completed", "==", "simcomm.handles.posted"},
    {"serve.completed", "<=", "serve.requests.accepted"},
    {"serve.drain.seconds:sum", "=>", "serve.drained"},
    {"serve.load.sustained_rps", "<=", "serve.load.offered_rps"},
};

std::optional<double> operand(const Value& reg, const std::string& name) {
  const auto find = [&](const char* group,
                        const std::string& key) -> const Value* {
    const auto& m = field(reg, group, Value::Kind::kObject)->obj;
    const auto it = m.find(key);
    return it == m.end() ? nullptr : it->second.get();
  };
  const auto colon = name.find(':');
  if (colon == std::string::npos) {
    const Value* v = find("counters", name);
    if (!v) v = find("gauges", name);
    return v ? std::optional(v->num) : std::nullopt;
  }
  const Value* h = find("histograms", name.substr(0, colon));
  if (!h) return std::nullopt;
  return field(*h, name.substr(colon + 1).c_str(), Value::Kind::kNumber)->num;
}

bool is_count(const Value* v) {
  return v && v->kind == Value::Kind::kNumber && v->num >= 0.0 &&
         v->num == std::floor(v->num);
}

// "X.t<k>" -> "X", else empty.
std::string lane_base(const std::string& name) {
  const auto dot = name.rfind(".t");
  if (dot == std::string::npos || dot + 2 == name.size()) return {};
  for (std::size_t i = dot + 2; i < name.size(); ++i)
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return {};
  return name.substr(0, dot);
}

int check_histogram(const std::string& name, const Value& h) {
  const Value* count = field(h, "count", Value::Kind::kNumber);
  if (!is_count(count) || !field(h, "sum", Value::Kind::kNumber))
    return fail("histogram %s lacks count/sum", name.c_str());
  if (count->num == 0.0) return 0;
  static const char* keys[] = {"min", "p50", "p95", "p99", "max"};
  double v[5];
  for (int i = 0; i < 5; ++i) {
    const Value* x = field(h, keys[i], Value::Kind::kNumber);
    if (!x) return fail("histogram %s lacks numeric %s", name.c_str(), keys[i]);
    v[i] = x->num;
  }
  if (!std::is_sorted(v, v + 5))
    return fail("histogram %s quantiles out of order (min %g, p50 %g, "
                "p95 %g, p99 %g, max %g)",
                name.c_str(), v[0], v[1], v[2], v[3], v[4]);
  // Top-rank exactness: at the rank Histogram::quantile() computes for
  // the last sample, it clamps the bucket edge to max.
  const auto n = static_cast<std::uint64_t>(count->num);
  const double qs[] = {0.50, 0.95, 0.99};
  for (int j = 0; j < 3; ++j) {
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(qs[j] * static_cast<double>(n))));
    if (rank == n && v[1 + j] != v[4])
      return fail("histogram %s %s %g is below max %g at the top rank "
                  "(count %llu): bucket counts were lost",
                  name.c_str(), keys[1 + j], v[1 + j], v[4],
                  static_cast<unsigned long long>(n));
  }
  return 0;
}

int check_registry(const Value& reg) {
  const Value* counters = field(reg, "counters", Value::Kind::kObject);
  const Value* gauges = field(reg, "gauges", Value::Kind::kObject);
  const Value* hists = field(reg, "histograms", Value::Kind::kObject);
  if (!counters || !gauges || !hists)
    return fail("registry lacks counters/gauges/histograms objects");
  std::map<std::string, double> lanes; // base operand -> summed lanes
  for (const auto& [name, v] : counters->obj) {
    if (!is_count(v.get()))
      return fail("counter %s is not a non-negative integer", name.c_str());
    if (const auto base = lane_base(name); !base.empty()) lanes[base] += v->num;
  }
  for (const auto& [name, v] : gauges->obj)
    if (v->kind != Value::Kind::kNumber)
      return fail("gauge %s is not a number", name.c_str());
  for (const auto& [name, v] : hists->obj) {
    if (check_histogram(name, *v) != 0) return 1;
    if (const auto base = lane_base(name); !base.empty())
      lanes[base + ":count"] += field(*v, "count", Value::Kind::kNumber)->num;
  }
  for (const auto& [base, sum] : lanes)
    if (sum != operand(reg, base).value_or(0.0))
      return fail("lanes of %s sum to %g, the base reads %g", base.c_str(),
                  sum, operand(reg, base).value_or(0.0));
  for (const Invariant& row : kInvariants) {
    const auto lhs = operand(reg, row.lhs);
    const auto rhs = operand(reg, row.rhs);
    if (!lhs && !rhs) continue;
    const double l = lhs.value_or(0.0), r = rhs.value_or(0.0);
    const std::string rel = row.rel;
    const bool ok = rel == "<=" ? l <= r
                    : rel == "==" ? l == r
                                  : !(l > 0.0) || r > 0.0;
    if (!ok)
      return fail("invariant %s %s %s fails (%g vs %g)", row.lhs, row.rel,
                  row.rhs, l, r);
  }
  return 0;
}

int check_bench(const Value& root) {
  const Value* ver = field(root, "schema_version", Value::Kind::kNumber);
  const Value* recs = field(root, "records", Value::Kind::kArray);
  const Value* reg = field(root, "registry", Value::Kind::kObject);
  if (!ver || !recs) return fail("bench JSON lacks schema_version/records");
  if (ver->num != 3)
    return fail("bench schema_version %g, expected 3", ver->num);
  if (!reg) return fail("bench JSON lacks a registry object");
  static const char* num_keys[] = {
      "gflops",         "bytes_alloc",       "seconds",
      "comm_bytes",     "comm_seconds",      "comm_overlap_seconds",
      "handles_posted", "handles_completed", "span_count"};
  double posted_sum = 0.0, bytes_sum = 0.0;
  for (std::size_t i = 0; i < recs->arr.size(); ++i) {
    const Value& r = *recs->arr[i];
    if (r.kind != Value::Kind::kObject ||
        !field(r, "kernel", Value::Kind::kString))
      return fail("record %zu lacks kernel name", i);
    for (const char* k : num_keys)
      if (!field(r, k, Value::Kind::kNumber))
        return fail("record %zu lacks numeric %s", i, k);
    // Handle-leak invariant: every nonblocking handle a rank posted must
    // have been completed by the time the record was sampled (a dropped
    // CommHandle silently discards its payload), and the overlap account
    // can never be negative.
    const double posted = field(r, "handles_posted",
                                Value::Kind::kNumber)->num;
    const double completed = field(r, "handles_completed",
                                   Value::Kind::kNumber)->num;
    if (posted != completed)
      return fail("record %zu leaks comm handles: %g posted, %g completed", i,
                  posted, completed);
    const double overlap =
        field(r, "comm_overlap_seconds", Value::Kind::kNumber)->num;
    if (overlap < 0.0)
      return fail("record %zu has negative comm_overlap_seconds", i);
    // Overlap is time spent computing while a nonblocking handle was in
    // flight, so a record that posted none has none; a nonzero value there
    // means the emitter filled the wrong field.
    if (posted == 0.0 && overlap != 0.0)
      return fail("record %zu reports %g s comm_overlap_seconds with no "
                  "handles posted",
                  i, overlap);
    posted_sum += posted;
    bytes_sum += field(r, "comm_bytes", Value::Kind::kNumber)->num;
  }

  // Optional machine block (DESIGN.md Sec. 12): when present it must name
  // a known simd dispatch target and carry a cpu_flags array of strings,
  // so recorded numbers stay attributable to the kernel ISA that produced
  // them.
  std::string simd_target;
  if (root.obj.count("machine")) {
    const Value* m = field(root, "machine", Value::Kind::kObject);
    if (!m) return fail("\"machine\" is not an object");
    const Value* s = field(*m, "simd", Value::Kind::kString);
    if (!s || (s->str != "scalar" && s->str != "avx2" && s->str != "avx512"))
      return fail("machine.simd must be \"scalar\", \"avx2\" or \"avx512\"");
    const Value* fl = field(*m, "cpu_flags", Value::Kind::kArray);
    if (!fl) return fail("machine block lacks cpu_flags array");
    for (std::size_t i = 0; i < fl->arr.size(); ++i)
      if (fl->arr[i]->kind != Value::Kind::kString)
        return fail("machine.cpu_flags[%zu] is not a string", i);
    simd_target = s->str;
  }

  // Optional transport tag (DESIGN.md Sec. 11): when present it must be
  // one of the SimComm backend names, so downstream scaling plots can
  // trust the measured-over-processes distinction.
  std::string transport;
  if (root.obj.count("transport")) {
    const Value* t = field(root, "transport", Value::Kind::kString);
    if (!t || (t->str != "inproc" && t->str != "shm"))
      return fail("\"transport\" must be \"inproc\" or \"shm\"");
    transport = t->str;
  }

  if (check_registry(*reg) != 0) return 1;

  // Records vs registry: a transport-tagged file holds one record per rank
  // of one mini-run, so the records account for every SimComm byte and
  // handle the registry counted.
  if (!transport.empty()) {
    double reg_bytes = 0.0;
    for (const auto& [name, v] :
         field(*reg, "counters", Value::Kind::kObject)->obj)
      if (name.rfind("simcomm.", 0) == 0 && name.size() > 6 &&
          name.compare(name.size() - 6, 6, ".bytes") == 0)
        reg_bytes += v->num;
    const double reg_posted =
        operand(*reg, "simcomm.handles.posted").value_or(0.0);
    if (posted_sum != reg_posted || bytes_sum != reg_bytes)
      return fail("records sum to %g handles_posted and %g comm_bytes, the "
                  "registry to %g simcomm.handles.posted and %g "
                  "simcomm.*.bytes",
                  posted_sum, bytes_sum, reg_posted, reg_bytes);
  }

  std::size_t instruments = 0;
  for (const auto& [kind, group] : reg->obj) instruments += group->obj.size();
  std::printf("trace_check: OK, bench schema v3, %zu records, %zu "
              "instruments%s%s%s%s\n",
              recs->arr.size(), instruments,
              simd_target.empty() ? "" : ", simd ", simd_target.c_str(),
              transport.empty() ? "" : ", transport ", transport.c_str());
  return 0;
}

ValuePtr parse_file(const char* path) {
  std::FILE* fp = std::fopen(path, "rb");
  if (!fp) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path);
    return nullptr;
  }
  std::string buf;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, fp)) > 0)
    buf.append(chunk, got);
  std::fclose(fp);
  try {
    Parser p(buf.data(), buf.size());
    return p.parse();
  } catch (const std::string& err) {
    std::fprintf(stderr, "trace_check: %s: invalid JSON: %s\n", path,
                 err.c_str());
    return nullptr;
  }
}

/// --compare-comm a.json b.json: both must be valid bench files with the
/// same kernel set and bit-equal comm_bytes per kernel. This is how CI
/// proves the shm and inproc transports move identical traffic for the
/// same configuration (timings, overlap seconds, and handle counts are
/// allowed to differ).
int compare_comm(const char* path_a, const char* path_b) {
  ValuePtr a = parse_file(path_a);
  ValuePtr b = parse_file(path_b);
  if (!a || !b) return 1;
  if (a->kind != Value::Kind::kObject || b->kind != Value::Kind::kObject ||
      check_bench(*a) != 0 || check_bench(*b) != 0)
    return 1;
  auto comm_map = [](const Value& root) {
    std::map<std::string, double> m;
    const Value* recs = field(root, "records", Value::Kind::kArray);
    for (const auto& r : recs->arr)
      m[field(*r, "kernel", Value::Kind::kString)->str] =
          field(*r, "comm_bytes", Value::Kind::kNumber)->num;
    return m;
  };
  const auto ma = comm_map(*a);
  const auto mb = comm_map(*b);
  int bad = 0;
  for (const auto& [kernel, bytes] : ma) {
    auto it = mb.find(kernel);
    if (it == mb.end()) {
      std::fprintf(stderr, "trace_check: kernel \"%s\" only in %s\n",
                   kernel.c_str(), path_a);
      ++bad;
    } else if (it->second != bytes) {
      std::fprintf(stderr,
                   "trace_check: kernel \"%s\" comm_bytes differ: %.0f vs "
                   "%.0f\n",
                   kernel.c_str(), bytes, it->second);
      ++bad;
    }
  }
  for (const auto& [kernel, bytes] : mb)
    if (!ma.count(kernel)) {
      std::fprintf(stderr, "trace_check: kernel \"%s\" only in %s\n",
                   kernel.c_str(), path_b);
      ++bad;
    }
  if (bad) return 1;
  std::printf("trace_check: OK, %zu kernels, per-kernel comm_bytes "
              "identical\n",
              ma.size());
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--compare-comm")
    return compare_comm(argv[2], argv[3]);
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: trace_check <file.json>\n"
                 "       trace_check --compare-comm <a.json> <b.json>\n");
    return 1;
  }
  ValuePtr root = parse_file(argv[1]);
  if (!root) return 1;

  if (root->kind == Value::Kind::kArray) return check_trace(*root);
  if (root->kind == Value::Kind::kObject) return check_bench(*root);
  std::fprintf(stderr, "trace_check: top-level value is neither trace array "
                       "nor bench object\n");
  return 1;
}
