// trace_check — validator for the two JSON artifacts the benches emit
// (ctest -L benchsmoke / -L obs):
//
//   trace_check <file.json>
//
// * A Chrome trace-event file (what --trace=/MLMD_TRACE writes) must be a
//   top-level ARRAY of complete events: every element an object with a
//   string "name", "ph" == "X", numeric "ts"/"dur"/"pid"/"tid". That is
//   exactly the shape chrome://tracing and Perfetto accept.
// * A bench --json file (benchjson schema v2) must be an OBJECT with an
//   integer "schema_version" and a "records" array whose elements carry
//   kernel/gflops/bytes_alloc/seconds/comm_bytes/comm_seconds/
//   comm_overlap_seconds/handles_posted/handles_completed/span_count.
//   Per record, handles_completed must equal handles_posted (no leaked
//   nonblocking CommHandles) and comm_overlap_seconds must be >= 0, and
//   exactly 0 when handles_posted is 0.
//   An optional "ft" object (fault-tolerance totals, DESIGN.md Sec. 10)
//   must, when present, carry numeric faults_injected/faults_detected/
//   faults_recovered/checkpoint_writes/checkpoint_bytes/
//   checkpoint_seconds with detected >= recovered and non-negative
//   values. An optional "liveness" object (DESIGN.md Sec. 15) must carry
//   numeric deadline_hits/sheds/stall_detections/drained/drain_seconds,
//   all non-negative, with drain_seconds > 0 implying drained > 0.
//
// The file kind is detected from the top-level value. Exit 0 on a valid
// file (a one-line summary is printed), 1 on any structural violation.
// The parser is a self-contained recursive-descent JSON reader — no
// third-party dependency, which is the point: it proves the emitters
// produce well-formed JSON without trusting the emitters' own printf.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
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

int check_trace(const Value& root) {
  double total_us = 0.0;
  for (std::size_t i = 0; i < root.arr.size(); ++i) {
    const Value& ev = *root.arr[i];
    if (ev.kind != Value::Kind::kObject) {
      std::fprintf(stderr, "trace_check: event %zu is not an object\n", i);
      return 1;
    }
    const Value* ph = field(ev, "ph", Value::Kind::kString);
    if (!field(ev, "name", Value::Kind::kString) || !ph || ph->str != "X" ||
        !field(ev, "ts", Value::Kind::kNumber) ||
        !field(ev, "dur", Value::Kind::kNumber) ||
        !field(ev, "pid", Value::Kind::kNumber) ||
        !field(ev, "tid", Value::Kind::kNumber)) {
      std::fprintf(stderr,
                   "trace_check: event %zu lacks a complete-event shape "
                   "(name/ph=X/ts/dur/pid/tid)\n",
                   i);
      return 1;
    }
    total_us += field(ev, "dur", Value::Kind::kNumber)->num;
  }
  std::printf("trace_check: OK, %zu complete events, %.3f ms total span time\n",
              root.arr.size(), total_us / 1e3);
  return 0;
}

int check_bench(const Value& root) {
  const Value* ver = field(root, "schema_version", Value::Kind::kNumber);
  const Value* recs = field(root, "records", Value::Kind::kArray);
  if (!ver || !recs) {
    std::fprintf(stderr,
                 "trace_check: bench JSON lacks schema_version/records\n");
    return 1;
  }
  static const char* num_keys[] = {"gflops",
                                   "bytes_alloc",
                                   "seconds",
                                   "comm_bytes",
                                   "comm_seconds",
                                   "comm_overlap_seconds",
                                   "handles_posted",
                                   "handles_completed",
                                   "span_count"};
  for (std::size_t i = 0; i < recs->arr.size(); ++i) {
    const Value& r = *recs->arr[i];
    if (r.kind != Value::Kind::kObject ||
        !field(r, "kernel", Value::Kind::kString)) {
      std::fprintf(stderr, "trace_check: record %zu lacks kernel name\n", i);
      return 1;
    }
    for (const char* k : num_keys)
      if (!field(r, k, Value::Kind::kNumber)) {
        std::fprintf(stderr, "trace_check: record %zu lacks numeric %s\n", i,
                     k);
        return 1;
      }
    // Handle-leak invariant: every nonblocking handle a rank posted must
    // have been completed by the time the record was sampled (a dropped
    // CommHandle silently discards its payload), and the overlap account
    // can never be negative.
    const double posted = field(r, "handles_posted",
                                Value::Kind::kNumber)->num;
    const double completed = field(r, "handles_completed",
                                   Value::Kind::kNumber)->num;
    if (posted != completed) {
      std::fprintf(stderr,
                   "trace_check: record %zu leaks comm handles: %g posted, "
                   "%g completed\n",
                   i, posted, completed);
      return 1;
    }
    const double overlap =
        field(r, "comm_overlap_seconds", Value::Kind::kNumber)->num;
    if (overlap < 0.0) {
      std::fprintf(stderr,
                   "trace_check: record %zu has negative "
                   "comm_overlap_seconds\n",
                   i);
      return 1;
    }
    // Overlap is time spent computing while a nonblocking handle was in
    // flight, so a record that posted none has none; a nonzero value there
    // means the emitter filled the wrong field.
    if (posted == 0.0 && overlap != 0.0) {
      std::fprintf(stderr,
                   "trace_check: record %zu reports %g s comm_overlap_seconds "
                   "with no handles posted\n",
                   i, overlap);
      return 1;
    }
  }

  // Optional machine block (DESIGN.md Sec. 12): when present it must name
  // a known simd dispatch target and carry a cpu_flags array of strings,
  // so recorded numbers stay attributable to the kernel ISA that produced
  // them.
  std::string simd_target;
  if (root.obj.count("machine")) {
    const Value* m = field(root, "machine", Value::Kind::kObject);
    if (!m) {
      std::fprintf(stderr, "trace_check: \"machine\" is not an object\n");
      return 1;
    }
    const Value* s = field(*m, "simd", Value::Kind::kString);
    if (!s || (s->str != "scalar" && s->str != "avx2" && s->str != "avx512")) {
      std::fprintf(stderr,
                   "trace_check: machine.simd must be \"scalar\", \"avx2\" "
                   "or \"avx512\"\n");
      return 1;
    }
    const Value* fl = field(*m, "cpu_flags", Value::Kind::kArray);
    if (!fl) {
      std::fprintf(stderr,
                   "trace_check: machine block lacks cpu_flags array\n");
      return 1;
    }
    for (std::size_t i = 0; i < fl->arr.size(); ++i)
      if (fl->arr[i]->kind != Value::Kind::kString) {
        std::fprintf(stderr,
                     "trace_check: machine.cpu_flags[%zu] is not a string\n",
                     i);
        return 1;
      }
    simd_target = s->str;
  }

  // Optional transport tag (DESIGN.md Sec. 11): when present it must be
  // one of the SimComm backend names, so downstream scaling plots can
  // trust the measured-over-processes distinction.
  std::string transport;
  if (root.obj.count("transport")) {
    const Value* t = field(root, "transport", Value::Kind::kString);
    if (!t || (t->str != "inproc" && t->str != "shm")) {
      std::fprintf(stderr,
                   "trace_check: \"transport\" must be \"inproc\" or "
                   "\"shm\"\n");
      return 1;
    }
    transport = t->str;
  }

  // Optional fault-tolerance block: validated only when the emitter
  // decided the run exercised the ft layer.
  bool have_ft = false;
  if (root.obj.count("ft")) {
    const Value* ft = field(root, "ft", Value::Kind::kObject);
    if (!ft) {
      std::fprintf(stderr, "trace_check: \"ft\" is not an object\n");
      return 1;
    }
    static const char* ft_keys[] = {"faults_injected",   "faults_detected",
                                    "faults_recovered",  "checkpoint_writes",
                                    "checkpoint_bytes",  "checkpoint_seconds"};
    for (const char* k : ft_keys) {
      const Value* v = field(*ft, k, Value::Kind::kNumber);
      if (!v) {
        std::fprintf(stderr, "trace_check: ft block lacks numeric %s\n", k);
        return 1;
      }
      if (v->num < 0.0) {
        std::fprintf(stderr, "trace_check: ft.%s is negative\n", k);
        return 1;
      }
    }
    const double detected = field(*ft, "faults_detected",
                                  Value::Kind::kNumber)->num;
    const double recovered = field(*ft, "faults_recovered",
                                   Value::Kind::kNumber)->num;
    if (recovered > detected) {
      std::fprintf(stderr,
                   "trace_check: ft.faults_recovered (%g) exceeds "
                   "ft.faults_detected (%g)\n",
                   recovered, detected);
      return 1;
    }
    have_ft = true;
  }

  // Optional serving-load block (DESIGN.md Sec. 14): numeric throughput /
  // latency / occupancy fields, a known mode tag, and ordered latency
  // percentiles (p50 <= p95 <= p99 — a broken quantile estimator or a
  // mislabeled lane fails loudly here).
  bool have_serve = false;
  if (root.obj.count("serve")) {
    const Value* sv = field(root, "serve", Value::Kind::kObject);
    if (!sv) {
      std::fprintf(stderr, "trace_check: \"serve\" is not an object\n");
      return 1;
    }
    const Value* mode = field(*sv, "mode", Value::Kind::kString);
    if (!mode || (mode->str != "closed" && mode->str != "open")) {
      std::fprintf(stderr,
                   "trace_check: serve.mode must be \"closed\" or \"open\"\n");
      return 1;
    }
    static const char* serve_keys[] = {
        "tenants",        "sessions",     "offered_rps",
        "sustained_rps",  "sustained_rps_batch1",
        "batch_speedup",  "latency_p50_s", "latency_p95_s",
        "latency_p99_s",  "batch_occupancy_mean",
        "completed",      "rejected"};
    for (const char* k : serve_keys) {
      const Value* v = field(*sv, k, Value::Kind::kNumber);
      if (!v) {
        std::fprintf(stderr, "trace_check: serve block lacks numeric %s\n", k);
        return 1;
      }
      if (v->num < 0.0) {
        std::fprintf(stderr, "trace_check: serve.%s is negative\n", k);
        return 1;
      }
    }
    const double p50 = field(*sv, "latency_p50_s", Value::Kind::kNumber)->num;
    const double p95 = field(*sv, "latency_p95_s", Value::Kind::kNumber)->num;
    const double p99 = field(*sv, "latency_p99_s", Value::Kind::kNumber)->num;
    if (p50 > p95 || p95 > p99) {
      std::fprintf(stderr,
                   "trace_check: serve latency percentiles out of order "
                   "(p50 %g, p95 %g, p99 %g)\n",
                   p50, p95, p99);
      return 1;
    }
    const double sessions = field(*sv, "sessions", Value::Kind::kNumber)->num;
    const double completed = field(*sv, "completed",
                                   Value::Kind::kNumber)->num;
    if (completed > sessions) {
      std::fprintf(stderr,
                   "trace_check: serve.completed (%g) exceeds "
                   "serve.sessions (%g)\n",
                   completed, sessions);
      return 1;
    }
    have_serve = true;
  }

  // Optional liveness block (DESIGN.md Sec. 15): deadline hits, sheds,
  // stall detections and drain totals must all be numeric and
  // non-negative; emitters omit the block entirely on fully-live runs.
  bool have_liveness = false;
  if (root.obj.count("liveness")) {
    const Value* lv = field(root, "liveness", Value::Kind::kObject);
    if (!lv) {
      std::fprintf(stderr, "trace_check: \"liveness\" is not an object\n");
      return 1;
    }
    static const char* lv_keys[] = {"deadline_hits", "sheds",
                                    "stall_detections", "drained",
                                    "drain_seconds"};
    for (const char* k : lv_keys) {
      const Value* v = field(*lv, k, Value::Kind::kNumber);
      if (!v) {
        std::fprintf(stderr, "trace_check: liveness block lacks numeric %s\n",
                     k);
        return 1;
      }
      if (v->num < 0.0) {
        std::fprintf(stderr, "trace_check: liveness.%s is negative\n", k);
        return 1;
      }
    }
    // A drain that took time must have drained at least one session —
    // nonzero drain_seconds with drained == 0 means a mislabeled lane.
    const double drained = field(*lv, "drained", Value::Kind::kNumber)->num;
    const double drain_s = field(*lv, "drain_seconds",
                                 Value::Kind::kNumber)->num;
    if (drain_s > 0.0 && drained == 0.0) {
      std::fprintf(stderr,
                   "trace_check: liveness.drain_seconds (%g) nonzero with "
                   "zero drained sessions\n",
                   drain_s);
      return 1;
    }
    have_liveness = true;
  }

  std::printf(
      "trace_check: OK, bench schema v%d, %zu records%s%s%s%s%s%s%s\n",
      static_cast<int>(ver->num), recs->arr.size(),
      simd_target.empty() ? "" : ", simd ", simd_target.c_str(),
      transport.empty() ? "" : ", transport ", transport.c_str(),
      have_ft ? ", ft block present" : "",
      have_serve ? ", serve block present" : "",
      have_liveness ? ", liveness block present" : "");
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
