// Table III reproduction: runtime of the kin_prop() local time-propagator
// across the optimization ladder — baseline (AoS) / data+loop re-ordering
// (SoA, Sec. V.B.2) / blocking-tiling (Sec. V.B.3) / hierarchical parallel
// regions (Sec. V.B.4).
//
// Paper parameters: 1,000 QD steps, 64 KS orbitals, 70x70x72 mesh. That
// workload takes minutes per variant on one core, so the default here is
// a scaled-down 200 steps on 32x32x32 with the same orbital count; pass
// --paper for the full Table III workload.
//
// Expected shape (paper: 1 / 3.67 / 9.22 / 338): each rung is faster than
// the previous; the parallel rung's gain tracks the ThreadPool size
// (MLMD_NUM_THREADS; the paper's 338x came from a GPU).

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/simd/simd.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  try {
    simd::set_target(
        cli.choice("simd", simd::kTargetChoices, simd::active_target()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("# simd target: %s\n", simd::target_name(simd::active_target()));
  const bool paper = cli.flag("paper");
  const std::size_t nx = paper ? 70 : static_cast<std::size_t>(cli.integer("n", 32));
  const std::size_t ny = nx;
  const std::size_t nz = paper ? 72 : nx;
  const std::size_t norb = static_cast<std::size_t>(cli.integer("norb", 64));
  const int steps = paper ? 1000 : static_cast<int>(cli.integer("steps", 200));

  grid::Grid3 g{nx, ny, nz, 0.5, 0.5, 0.5};
  lfd::KinParams kp;
  kp.dt = 0.04;
  kp.a[1] = 0.1; // nonzero vector potential: full Peierls path

  struct Row {
    const char* name;
    lfd::KinVariant variant;
  };
  const Row rows[] = {
      {"Baseline (AoS)", lfd::KinVariant::kBaseline},
      {"Data & loop re-ordering (B.2)", lfd::KinVariant::kReordered},
      {"Blocking/tiling (B.3)", lfd::KinVariant::kBlocked},
      {"Hierarchical parallel regions (B.4)", lfd::KinVariant::kParallel},
  };

  std::printf("# Table III: kin_prop() runtime, %d QD steps, %zu orbitals, "
              "%zux%zux%zu mesh (FP32)\n",
              steps, norb, nx, ny, nz);
  std::printf("%-38s %-12s %-10s\n", "Implementation", "Runtime(s)", "Speedup");

  double baseline_time = 0.0;
  for (const auto& row : rows) {
    lfd::SoAWave<float> w(g, norb);
    lfd::init_plane_waves(w);
    // For the AoS baseline, time the native AoS kernel without the
    // layout-conversion overhead of the shared entry point.
    Timer t;
    if (row.variant == lfd::KinVariant::kBaseline) {
      auto aos = lfd::to_aos(w);
      t.reset();
      for (int s = 0; s < steps; ++s) lfd::kin_prop_aos(aos, kp);
    } else {
      t.reset();
      for (int s = 0; s < steps; ++s) lfd::kin_prop(w, kp, row.variant);
    }
    const double secs = t.seconds();
    if (baseline_time == 0.0) baseline_time = secs;
    std::printf("%-38s %-12.3f %-10.2f\n", row.name, secs, baseline_time / secs);
  }
  std::printf("# paper reference (Polaris, CPU core vs A100): "
              "8.655 / 2.356 / 0.939 / 0.026 s -> 1 / 3.67 / 9.22 / 338\n");
  return 0;
}
