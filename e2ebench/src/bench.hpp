#pragma once
// e2ebench: the end-to-end benchmark of the MLMD pipeline and service.
//
// Three workloads (RATIONALE.md) drive the library through its public API;
// BENCHMARK.json lists the first two:
//
//   fig3_exact           pipeline::Session, kExact, the paper's Fig. 3 shape
//   serve_neural_closed  serve::Server, closed loop, batched kNeural inference
//   serve_short_open     serve::Server, open loop, prepare-dominated scenarios
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) reports per-layer metrics: it records spans from this
// benchmark's own code around calls into each module's public functions,
// replaying the calls Session::prepare/step make in the pipeline's order,
// and switches on obs::Tracer to collect the spans the library already
// records (gemm.*, lfd.*, pool.launch). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mlmd/mlmd/pipeline.hpp"
#include "mlmd/obs/trace.hpp"

namespace e2e {

using mlmd::pipeline::PipelineOptions;
using mlmd::pipeline::PipelineResult;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;          ///< pool threads == OMP_NUM_THREADS
  double open_rate = 6.0;   ///< serve_short_open arrivals per second
  bool corrupt = false;     ///< flip one bit of one result before checking
  double t_start = 0.0;     ///< now_s() at process start (setup_s origin)
};

/// Set-ups per untraced run; setup_s is their median. A single set-up
/// swings by +-25% on a shared host (page faults, thread wake-ups).
constexpr int kSetups = 11;

// ---- report -------------------------------------------------------------

/// Metrics a run reports plus the outcome of its output checks.
class Report {
 public:
  /// Register every metric name up front (value 0) so a run prints the
  /// full list whatever its workload exercises.
  void declare(const std::string& name, const std::string& unit);
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// Record one output check; a failed check makes the run fail.
  void check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  long attempted = 0;
  long failed = 0;

  /// Human-readable metric lines, then the JSON result as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// The metric tables (names and units must match BENCHMARK.json).
void declare_end_to_end(Report& r);
void declare_per_layer(Report& r);

// ---- time, statistics, environment ---------------------------------------

double now_s(); ///< steady clock, seconds

/// Exact sample quantile, linear interpolation between order statistics
/// (Hyndman-Fan type 7). Computed from the samples themselves, never from
/// obs::Histogram buckets.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
std::size_t count_above(const std::vector<double>& v, double x);

double peak_rss_mb();

/// Usable cores (the affinity mask, as nproc counts them).
int usable_cores();
/// The run's thread count: OMP_NUM_THREADS, which must be set (the OpenMP
/// runtime reads it only at load time), lie in 1..usable_cores() and
/// agree with the runtime. The pool is pinned to the same count, so the
/// OpenMP regions in mg/lfd do not contend with it.
int threads_from_env();
/// Size the global ThreadPool to `n` threads (no-op when it already is).
void pin_threads(int n);
void print_environment(const Options& o);

/// Small deterministic generator for workload inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  double uniform(); ///< [0, 1)
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

// ---- results --------------------------------------------------------------

/// q_history as hexfloat text (bit-exact rendering).
std::string hexfloat_history(const PipelineResult& r);
std::uint64_t fnv1a(const std::string& s);
bool same_bits(double a, double b);
/// Bitwise equality of the physics fields (n_exc, w, q_initial, q_final,
/// switched, q_history).
bool same_physics(const PipelineResult& a, const PipelineResult& b);
/// Flip the lowest mantissa bit of the last recorded charge.
void corrupt(PipelineResult& r);

// ---- the benchmark's own spans ---------------------------------------------

struct Span {
  const char* name = nullptr;
  long scenario = 0;  ///< scenario id (a batched call carries its group id)
  int parent = -1;    ///< index of the enclosing span, -1 at the root
  std::uint64_t t0 = 0, t1 = 0; ///< obs::Tracer clock, ns
  double cells = 0.0; ///< lattice cells processed (cells x steps)
  double flops = 0.0; ///< flops::Scope count over the call
  double seconds() const { return static_cast<double>(t1 - t0) * 1e-9; }
};

/// In-memory span log of one traced run. Single-threaded: spans are
/// opened and closed on the thread that replays the calls. Times use the
/// tracer clock, so program spans from obs::Tracer::snapshot() line up.
class SpanLog {
 public:
  int open(const char* name, long scenario);
  void close(int i);
  Span& at(int i) { return spans_[static_cast<std::size_t>(i)]; }

  double seconds(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  double cells(const std::string& name) const;
  double flops(const std::string& name) const;
  /// Seconds of every `name` span covered by the union of its direct
  /// children whose names are in `children` (all children when empty).
  double covered_by_children(const std::string& name,
                             const std::vector<std::string>& children) const;
  /// Seconds of every `name` span covered by the union of program spans
  /// whose names start with `prefix`.
  double covered_by_program(const std::string& name,
                            const std::vector<mlmd::obs::SpanEvent>& ev,
                            const std::string& prefix) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `log` is null (untraced code paths).
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, long scenario)
      : log_(log), i_(log ? log->open(name, scenario) : -1) {}
  ~Scoped() {
    if (log_) log_->close(i_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void add_work(double cells, double flops = 0.0) {
    if (!log_) return;
    log_->at(i_).cells += cells;
    log_->at(i_).flops += flops;
  }

 private:
  SpanLog* log_;
  int i_;
};

// ---- pipeline replay ---------------------------------------------------------

struct Scenario {
  long id = 0;
  int tenant = 0;
  bool dark = false;
  PipelineOptions opt;
};

/// Stages 1-2 replayed with the public calls Session::prepare makes, in
/// order, on a lattice the replay owns.
struct Prepared {
  mlmd::ferro::FerroLattice lat;
  PipelineResult res; ///< n_exc, w, q_initial, q_history = {q_initial}
};
Prepared replay_prepare(const Scenario& s, SpanLog* log);

/// kExact stage 3 replayed with FerroLattice::step and topological_charge.
/// Finishes `p.res` exactly as Session does (q_history, q_final, switched).
void replay_exact_stage3(const Scenario& s, Prepared& p, SpanLog* log);

/// kNeural stage 3 for a group of scenarios in lockstep: one batched
/// nnq::xs_mixed_forces_multi per step, then Session::step_with for each.
/// step_with needs prepared Sessions, so each is prepared first (span
/// mlmd.session_prepare, outside the replayed tree).
std::vector<PipelineResult> replay_neural_stage3(
    const std::vector<const Scenario*>& group, long group_id, SpanLog* log);

/// Replay `scenarios` (prepare + stage 3, kNeural ones in lockstep groups
/// of up to `batch_max`) with spans while obs::Tracer records the
/// program's own spans, check each replayed result bitwise against
/// `expected`, and set the replay-derived per-layer metrics (per replayed
/// scenario). kExact stage 3 is replayed a second time with the pool at
/// one thread for ferro.step_s_t1. Returns the replayed wall seconds (the
/// mlmd.prepare + mlmd.stage3 spans).
double replay_and_report(const std::vector<Scenario>& scenarios,
                         const std::vector<PipelineResult>& expected,
                         std::size_t batch_max, int threads, Report& r);

// ---- workloads -------------------------------------------------------------

void run_fig3_exact(const Options& o, Report& r);
void run_serve(const Options& o, Report& r);

} // namespace e2e
