// Table V reproduction: FLOP/s of the hotspot kernels for the 1,024-
// orbital problem — CGEMM(1) (orbital overlap), CGEMM(2) (nonlocal
// update, Eq. 5), the full nlp_prop(), and kin_prop().
//
// Expected shape (paper: 81.4% / 94.2% / 69.7% / 15.3% of peak): the
// dense CGEMMs run at a much higher fraction of machine peak than the
// memory-bound stencil; nlp_prop sits between its two GEMMs. Absolute
// GFLOP/s here are one-CPU-core numbers; "% of peak" is reported against
// a measured DGEMM-style peak for this host.
//
// Default problem is scaled down (--norb=256, n=16) so the default run
// finishes in seconds; pass --paper for 1,024 orbitals on 24^3.
//
// A second section reports intra-node ThreadPool scaling: each pooled
// kernel timed serial (threads=1) vs pooled (threads=N, from --threads=N
// or MLMD_NUM_THREADS or the hardware default). On a single-core host the
// pool collapses to the serial fallback and speedups print ~1.0.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/maxwell/maxwell3d.hpp"
#include "mlmd/obs/obs.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"

namespace {

struct Meas {
  double gflops = 0.0;
  double seconds = 0.0;
  unsigned long long bytes_alloc = 0; ///< arena growth in the final rep
  unsigned long long span_count = 0;  ///< tracer spans recorded (all reps)
};

template <class Fn>
Meas measure(Fn&& fn, int reps) {
  // Best-of-N: peak-rate measurements take the fastest repetition so a
  // background scheduling hiccup cannot misorder the kernel ranking.
  // bytes_alloc is taken from the final repetition, when the Workspace
  // arena is warm — the engine's zero-steady-state-alloc contract makes
  // it 0 unless something regressed.
  Meas best;
  best.seconds = 1e300;
  unsigned long long last_delta = 0;
  const auto spans0 = mlmd::obs::Tracer::span_count();
  for (int i = 0; i < reps; ++i) {
    const auto r0 = mlmd::common::Workspace::total_reserved_bytes();
    mlmd::flops::Scope scope;
    mlmd::Timer t;
    fn();
    const double secs = t.seconds();
    last_delta = mlmd::common::Workspace::total_reserved_bytes() - r0;
    if (secs < best.seconds) {
      best.seconds = secs;
      best.gflops = static_cast<double>(scope.flops()) / secs / 1e9;
    }
  }
  best.bytes_alloc = last_delta;
  best.span_count = mlmd::obs::Tracer::span_count() - spans0;
  return best;
}

} // namespace

int main(int argc, char** argv) {
  using namespace mlmd;
  using cf = std::complex<float>;
  Cli cli(argc, argv);
  if (!cli.check_known({"threads", "paper", "norb", "n", "reps", "trace",
                        "json", "simd"},
                       "usage: bench_table5_kernels [--threads=N] [--paper] "
                       "[--norb=N] [--n=N] [--reps=N] [--trace[=path]] "
                       "[--json=path] [--simd=scalar|avx2|avx512]"))
    return 1;
  try {
    simd::set_target(
        cli.choice("simd", simd::kTargetChoices, simd::active_target()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (cli.has("threads"))
    par::ThreadPool::set_global_threads(
        static_cast<int>(cli.integer("threads", 0)));
  const int nthr = par::num_threads();
  const bool paper = cli.flag("paper");
  const std::size_t norb =
      paper ? 1024 : static_cast<std::size_t>(cli.integer("norb", 256));
  const std::size_t n = paper ? 24 : static_cast<std::size_t>(cli.integer("n", 16));
  const int reps = static_cast<int>(cli.integer("reps", paper ? 2 : 5));
  const std::string trace_path =
      obs::init_tracing(cli.has("trace") ? cli.str("trace") : "");

  grid::Grid3 g{n, n, n, 0.5, 0.5, 0.5};
  const std::size_t ngrid = g.size();

  lfd::SoAWave<float> w(g, norb);
  lfd::init_plane_waves(w);
  la::Matrix<cf> psi0 = w.psi;
  la::Matrix<cf> s(norb, norb);
  const cf one(1.0f, 0.0f), dv(static_cast<float>(g.dv()), 0.0f);

  // Host peak reference: a large square FP32 GEMM (the best this
  // implementation can do on this machine).
  la::Matrix<float> pa(512, 512, 1.0f), pb(512, 512, 1.0f), pc(512, 512);
  const auto peak = measure(
      [&] { la::gemm(la::Trans::kN, la::Trans::kN, 1.0f, pa, pb, 0.0f, pc); }, 5);

  std::printf("# Table V: hotspot kernels, %zu orbitals on %zu^3 grid (FP32)\n",
              norb, n);
  std::printf("# host peak reference (512^3 SGEMM): %.2f GFLOP/s\n", peak.gflops);
  std::printf("%-12s %-14s %-10s\n", "Kernel", "GFLOP/s", "% of peak");

  const auto cgemm1 = measure(
      [&] { la::gemm(la::Trans::kC, la::Trans::kN, dv, psi0, w.psi, cf{}, s); },
      reps);
  std::printf("%-12s %-14.2f %-10.1f\n", "CGEMM(1)", cgemm1.gflops,
              100.0 * cgemm1.gflops / peak.gflops);

  const auto cgemm2 = measure(
      [&] {
        la::gemm(la::Trans::kN, la::Trans::kN, cf(0.01f, 0.0f), psi0, s, one,
                 w.psi);
      },
      reps);
  std::printf("%-12s %-14.2f %-10.1f\n", "CGEMM(2)", cgemm2.gflops,
              100.0 * cgemm2.gflops / peak.gflops);

  const auto nlp = measure(
      [&] { lfd::nlp_prop(w, psi0, std::complex<double>(0.0, -0.001)); }, reps);
  std::printf("%-12s %-14.2f %-10.1f\n", "nlp_prop()", nlp.gflops,
              100.0 * nlp.gflops / peak.gflops);

  lfd::KinParams kp;
  kp.dt = 0.04;
  const auto kin = measure([&] { lfd::kin_prop(w, kp); }, reps);
  std::printf("%-12s %-14.2f %-10.1f\n", "kin_prop()", kin.gflops,
              100.0 * kin.gflops / peak.gflops);

  std::printf("# paper reference (PVC tile): CGEMM 81.4/94.2%%, nlp_prop "
              "69.7%%, kin_prop 15.3%% of peak\n");
  // With the packed engine nlp_prop is GEMM-bound, so it lands within
  // measurement noise of its constituent CGEMMs; allow 2% slack so run-to-
  // run frequency jitter cannot flip the verdict.
  const double gmax = std::max(cgemm1.gflops, cgemm2.gflops);
  std::printf("# shape check: GEMM%%>=nlp%%>kin%% -> %s\n",
              (1.02 * gmax >= nlp.gflops && nlp.gflops > kin.gflops) ? "OK"
                                                                     : "MIXED");
  // Note: n_grid=%zu keeps CGEMM(2)'s k=norb vs CGEMM(1)'s k=n_grid split
  // visible, as in the paper's two row-column combinations.
  (void)ngrid;

  if (cli.has("json")) {
    // Single-process kernels move no SimComm traffic; comm_* stay 0.
    const auto rec = [](const char* kernel, const Meas& m) {
      return benchjson::Record{.kernel = kernel,
                               .gflops = m.gflops,
                               .bytes_alloc = m.bytes_alloc,
                               .seconds = m.seconds,
                               .span_count = m.span_count};
    };
    const std::vector<benchjson::Record> recs{
        rec("sgemm_peak_512", peak), rec("cgemm1", cgemm1),
        rec("cgemm2", cgemm2), rec("nlp_prop", nlp), rec("kin_prop", kin)};
    const std::string path = cli.str("json");
    if (!benchjson::write(path, recs))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  // ---- intra-node ThreadPool scaling: serial vs pool --------------------
  std::printf("\n# ThreadPool scaling: threads=1 (serial fallback) vs "
              "threads=%d\n", nthr);
  std::printf("%-14s %-12s %-12s %-10s\n", "Kernel", "serial[s]", "pool[s]",
              "speedup");
  auto scaling_row = [&](const char* name, auto&& fn) {
    par::ThreadPool::set_global_threads(1);
    const auto s = measure(fn, reps);
    par::ThreadPool::set_global_threads(nthr);
    const auto p = measure(fn, reps);
    std::printf("%-14s %-12.5f %-12.5f %-10.2f\n", name, s.seconds, p.seconds,
                p.seconds > 0.0 ? s.seconds / p.seconds : 0.0);
  };
  scaling_row("SGEMM-512", [&] {
    la::gemm(la::Trans::kN, la::Trans::kN, 1.0f, pa, pb, 0.0f, pc);
  });
  scaling_row("CGEMM(2)", [&] {
    la::gemm(la::Trans::kN, la::Trans::kN, cf(0.01f, 0.0f), psi0, s, one,
             w.psi);
  });
  scaling_row("kin_prop", [&] { lfd::kin_prop(w, kp); });
  const std::size_t mxn = paper ? 64 : 32;
  maxwell::Maxwell3D em(mxn, mxn, mxn, 1.0, 2e-3);
  em.seed_plane_wave(2, 0.1);
  scaling_row("maxwell3d", [&] {
    for (int i = 0; i < 10; ++i) em.step();
  });

  if (!trace_path.empty()) {
    const double gemm_s = obs::Tracer::summed_seconds("gemm");
    std::printf("# trace: %.4f s total in gemm spans\n", gemm_s);
    obs::finish_tracing(trace_path);
  }
  return 0;
}
