#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace e2e {

// ---- report -------------------------------------------------------------

void Report::declare(const std::string& name, const std::string& unit) {
  metrics_.push_back({name, unit, 0.0});
}

void Report::set(const std::string& name, double value) {
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = std::isfinite(value) ? value : 0.0;
      return;
    }
  throw std::logic_error("e2ebench: undeclared metric " + name);
}

double Report::get(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return m.value;
  throw std::logic_error("e2ebench: undeclared metric " + name);
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

void Report::print() const {
  for (const auto& m : metrics_)
    std::printf("metric %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct_ ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

void declare_end_to_end(Report& r) {
  r.declare("setup_s", "s");
  r.declare("tts_s", "s");
  r.declare("t2s_ns_per_cell_step", "ns");
  r.declare("scenarios_per_s", "1/s");
  r.declare("latency_p50_s", "s");
}

void declare_per_layer(Report& r) {
  r.declare("mlmd.prepare_s", "s");
  r.declare("mlmd.stage3_s", "s");
  r.declare("mlmd.stage3_self_s", "s");
  r.declare("ferro.step_s", "s");
  r.declare("ferro.ns_per_cell_step", "ns");
  r.declare("ferro.step_s_t1", "s");
  r.declare("ferro.relax_s", "s");
  r.declare("ferro.flops_per_byte", "flop/B");
  r.declare("topo.charge_s", "s");
  r.declare("topo.charge_calls", "count");
  r.declare("topo.init_s", "s");
  r.declare("nnq.forces_s", "s");
  r.declare("nnq.ns_per_cell_eval", "ns");
  r.declare("nnq.gflops", "GFLOP/s");
  r.declare("nnq.train_s", "s");
  r.declare("la.gemm_s", "s");
  r.declare("mesh.setup_s", "s");
  r.declare("mesh.md_step_s", "s");
  r.declare("lfd.kin_prop_s", "s");
  r.declare("lfd.vloc_prop_s", "s");
  r.declare("lfd.nlp_prop_s", "s");
  r.declare("lfd.hartree_s", "s");
  r.declare("serve.submit_us", "us");
  r.declare("serve.queue_wait_s", "s");
  r.declare("serve.batch_occupancy", "fraction");
  r.declare("par.pool_launch_s", "s");
  r.declare("par.pool_launches", "count");
  r.declare("mlmd.prepare.attributed_share", "fraction");
  r.declare("mlmd.stage3.attributed_share", "fraction");
  r.declare("nnq.forces.attributed_share", "fraction");
  r.declare("obs.trace_overhead", "fraction");
  r.declare("bench.gen_late_s_p90", "s");
  r.declare("failed_share", "fraction");
  r.declare("peak_rss_mb", "MB");
}

// ---- time, statistics, environment ---------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t count_above(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double s) { return s > x; }));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

int threads_from_env() {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  const int n = omp ? std::atoi(omp) : 0;
  if (n < 1 || n > usable_cores())
    throw std::runtime_error(
        "e2ebench: OMP_NUM_THREADS must be set to the pool size, 1.." +
        std::to_string(usable_cores()) +
        ", or the mg/lfd OpenMP team contends with the pool; run through "
        "e2ebench/run.py");
#if defined(_OPENMP)
  if (omp_get_max_threads() != n)
    throw std::runtime_error("e2ebench: OpenMP runtime reports " +
                             std::to_string(omp_get_max_threads()) +
                             " threads, expected " + std::to_string(n));
#endif
  return n;
}

void pin_threads(int n) {
  if (mlmd::par::ThreadPool::global().num_threads() != n)
    mlmd::par::ThreadPool::set_global_threads(n);
}

void print_environment(const Options& o) {
  const auto kib = [](int name) { return sysconf(name) / 1024; };
  std::string caps;
  for (const auto& c : mlmd::simd::caps_strings()) caps += (caps.empty() ? "" : ",") + c;
  int omp_threads = 0;
#if defined(_OPENMP)
  omp_threads = omp_get_max_threads();
#endif
  std::printf("env workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("env nproc=%d hardware_concurrency=%u pool_threads=%d "
              "omp_threads=%d\n",
              usable_cores(), std::thread::hardware_concurrency(),
              mlmd::par::ThreadPool::global().num_threads(), omp_threads);
  std::printf("env cache_kib L1d=%ld L2=%ld L3=%ld\n",
              kib(_SC_LEVEL1_DCACHE_SIZE), kib(_SC_LEVEL2_CACHE_SIZE),
              kib(_SC_LEVEL3_CACHE_SIZE));
  std::printf("env simd_target=%s caps=%s\n",
              mlmd::simd::target_name(mlmd::simd::active_target()),
              caps.c_str());
}

std::uint64_t Rng::next() {
  // splitmix64
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

// ---- results --------------------------------------------------------------

std::string hexfloat_history(const PipelineResult& r) {
  std::string s;
  char buf[32];
  for (double q : r.q_history) {
    std::snprintf(buf, sizeof buf, " %a", q);
    s += buf;
  }
  return s;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_physics(const PipelineResult& a, const PipelineResult& b) {
  return same_bits(a.n_exc, b.n_exc) && same_bits(a.w, b.w) &&
         same_bits(a.q_initial, b.q_initial) &&
         same_bits(a.q_final, b.q_final) && a.switched == b.switched &&
         a.q_history.size() == b.q_history.size() &&
         (a.q_history.empty() ||
          std::memcmp(a.q_history.data(), b.q_history.data(),
                      a.q_history.size() * sizeof(double)) == 0);
}

void corrupt(PipelineResult& r) {
  if (r.q_history.empty()) r.q_history.push_back(0.0);
  std::uint64_t bits;
  std::memcpy(&bits, &r.q_history.back(), sizeof bits);
  bits ^= 1u;
  std::memcpy(&r.q_history.back(), &bits, sizeof bits);
}

} // namespace e2e
