// Fault-matrix coverage for mlmd::ft (DESIGN.md Sec. 10): checkpoint
// container integrity and bitwise-identical pipeline restart,
// deterministic fault injection through the SimComm and step-loop hooks,
// the three sentinel recovery policies on the
// pipeline (stage 3) and the stage-2 probe check that aborts under all
// of them, and the CLI unknown-flag guard.
//
// Labeled `ft`, `tsan`, and `ubsan`: the SimComm tests run real rank
// threads, so the whole file must stay clean under ThreadSanitizer and
// UndefinedBehaviorSanitizer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "mlmd/common/cli.hpp"
#include "mlmd/ft/checkpoint.hpp"
#include "mlmd/ft/fault.hpp"
#include "mlmd/ft/guard.hpp"
#include "mlmd/ft/io.hpp"
#include "mlmd/mlmd/pipeline.hpp"
#include "mlmd/par/simcomm.hpp"

namespace {

using namespace mlmd;

/// Removes a test artifact (and its .tmp sibling) on scope exit, so a
/// failing assertion cannot leak files into the build tree. The path is
/// suffixed with the process id: ctest runs the discovered cases and the
/// whole-binary aggregates of this file concurrently in one directory.
struct ScopedFile {
  explicit ScopedFile(const std::string& name)
      : path(name + "." + std::to_string(::getpid())) {}
  ~ScopedFile() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

bool file_exists(const std::string& path) {
  if (std::FILE* fp = std::fopen(path.c_str(), "rb")) {
    std::fclose(fp);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ft::Checkpoint container
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundtripsPodAndVectorSections) {
  ScopedFile f("test_ft_roundtrip.ckpt");
  ft::CheckpointWriter w;
  w.add_pod("scalar", 42L);
  w.add_pod("real", 3.25);
  w.add_vec("vec", std::vector<double>{1.5, -2.5, 1e300});
  w.add_vec("empty", std::vector<int>{});
  w.write(f.path);

  ft::CheckpointReader r(f.path);
  EXPECT_EQ(r.pod<long>("scalar"), 42L);
  EXPECT_EQ(r.pod<double>("real"), 3.25);
  EXPECT_EQ(r.vec<double>("vec"), (std::vector<double>{1.5, -2.5, 1e300}));
  EXPECT_TRUE(r.vec<int>("empty").empty());
  EXPECT_EQ(r.names(), (std::vector<std::string>{"empty", "real", "scalar",
                                                 "vec"}));
}

TEST(Checkpoint, MissingSectionAndWrongSizeThrow) {
  ScopedFile f("test_ft_missing.ckpt");
  ft::CheckpointWriter w;
  w.add_pod("x", 1.0);
  w.write(f.path);

  ft::CheckpointReader r(f.path);
  EXPECT_THROW(r.raw("absent"), std::runtime_error);
  EXPECT_THROW(r.pod<int>("x"), std::runtime_error); // 8 bytes read as 4
}

TEST(Checkpoint, CorruptionIsDetectedByCrc) {
  ScopedFile f("test_ft_corrupt.ckpt");
  ft::CheckpointWriter w;
  w.add_vec("payload", std::vector<double>(64, 1.0));
  w.write(f.path);

  // Flip one byte in the middle of the payload; the CRC trailer must
  // reject the file instead of handing back a torn snapshot.
  std::FILE* fp = std::fopen(f.path.c_str(), "rb+");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, 100, SEEK_SET), 0);
  const unsigned char bad = 0xFF;
  ASSERT_EQ(std::fwrite(&bad, 1, 1, fp), 1u);
  std::fclose(fp);

  EXPECT_THROW(ft::CheckpointReader r(f.path), std::runtime_error);
}

TEST(Checkpoint, BadMagicIsRejected) {
  ScopedFile f("test_ft_badmagic.ckpt");
  std::FILE* fp = std::fopen(f.path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  std::fputs("NOTACKPTxxxxxxxxxxxxxxxx", fp);
  std::fclose(fp);
  EXPECT_THROW(ft::CheckpointReader r(f.path), std::runtime_error);
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile) {
  ScopedFile f("test_ft_atomic.ckpt");
  ft::CheckpointWriter w;
  w.add_pod("x", 7);
  w.write(f.path);
  EXPECT_TRUE(file_exists(f.path));
  EXPECT_FALSE(file_exists(f.path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Fault-plan parsing and hook firing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKindAndKey) {
  auto plan = ft::parse_faults(
      "rank_crash@step=40,rank=2; bitflip@step=10,p=0.5,seed=7,count=3;"
      "bitflip@rank=1;nan_force@step=25; inf_field");
  const auto& s = plan.specs();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0].kind, ft::FaultKind::kRankCrash);
  EXPECT_EQ(s[0].step, 40);
  EXPECT_EQ(s[0].rank, 2);
  EXPECT_EQ(s[1].kind, ft::FaultKind::kBitFlip);
  EXPECT_EQ(s[1].step, 10);
  EXPECT_DOUBLE_EQ(s[1].p, 0.5);
  EXPECT_EQ(s[1].seed, 7u);
  EXPECT_EQ(s[1].count, 3);
  EXPECT_EQ(s[2].kind, ft::FaultKind::kBitFlip);
  EXPECT_EQ(s[2].step, -1); // any step
  EXPECT_EQ(s[3].kind, ft::FaultKind::kNanForce);
  EXPECT_EQ(s[4].kind, ft::FaultKind::kInfField);
  EXPECT_EQ(s[4].count, 1); // default
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(ft::parse_faults("frobnicate@step=1"), std::invalid_argument);
  EXPECT_THROW(ft::parse_faults("nan_force@bogus=1"), std::invalid_argument);
  EXPECT_THROW(ft::parse_faults("nan_force@step=xyz"), std::invalid_argument);
  EXPECT_THROW(ft::parse_faults("bitflip@p=1.5"), std::invalid_argument);
  // No kind models a retryable comm failure: nothing would retry it.
  EXPECT_THROW(ft::parse_faults("exchange_fail@step=1"), std::invalid_argument);
  EXPECT_THROW(ft::parse_faults("nan_force@count=0"), std::invalid_argument);
  EXPECT_TRUE(ft::parse_faults("").specs().empty());
}

TEST(FaultPlan, DisarmedHooksAreNoOps) {
  ASSERT_FALSE(ft::armed());
  std::vector<double> f(4, 1.0);
  EXPECT_FALSE(ft::hook_forces(0, f.data(), f.size()));
  EXPECT_FALSE(ft::hook_fields(0, f.data(), f.size()));
  for (double x : f) EXPECT_EQ(x, 1.0);
}

TEST(FaultPlan, NanForceFiresOnceAtItsStep) {
  ft::ScopedFaults faults("nan_force@step=2");
  std::vector<double> f(8, 1.0);
  EXPECT_FALSE(ft::hook_forces(0, f.data(), f.size()));
  EXPECT_FALSE(ft::hook_forces(1, f.data(), f.size()));
  EXPECT_TRUE(ft::hook_forces(2, f.data(), f.size()));
  int nans = 0;
  for (double x : f)
    if (std::isnan(x)) ++nans;
  EXPECT_EQ(nans, 1);
  // count=1 (default): replaying the step does not re-fire, so a
  // rollback that repeats it converges.
  std::vector<double> g(8, 1.0);
  EXPECT_FALSE(ft::hook_forces(2, g.data(), g.size()));
  EXPECT_EQ(ft::active_plan()->fired(), 1);
}

TEST(FaultPlan, InjectedNanSurvivesEveryAllreduceOp) {
  // Regression: kMin/kMax folded with plain comparisons, which are false
  // for NaN, so a nan_force poison injected on one rank silently lost to
  // any finite contribution and the downstream NaN sentinels never fired.
  // The poison must reach every rank under all three reduce operators.
  for (par::ReduceOp op :
       {par::ReduceOp::kSum, par::ReduceOp::kMin, par::ReduceOp::kMax}) {
    ft::ScopedFaults faults("nan_force@step=1");
    std::array<int, 3> nan_seen{};
    par::run(3, [&](par::Comm& c) {
      std::vector<double> f(4, 1.0 + static_cast<double>(c.rank()));
      if (c.rank() == 1) ft::hook_forces(1, f.data(), f.size());
      const auto red = c.allreduce(std::span<const double>(f), op);
      for (double x : red)
        if (std::isnan(x)) nan_seen[static_cast<std::size_t>(c.rank())] = 1;
    });
    EXPECT_EQ(ft::active_plan()->fired(), 1);
    for (int s : nan_seen)
      EXPECT_EQ(s, 1) << "NaN lost under op " << static_cast<int>(op);
  }
}

TEST(FaultPlan, BitflipCorruptsOneCollectivePayload) {
  ft::ScopedFaults faults("bitflip@rank=0,seed=9");
  const std::vector<double> original = {1.0, 2.0, 3.0};
  std::array<std::vector<double>, 2> received;
  par::run(2, [&](par::Comm& c) {
    std::vector<double> data = original;
    c.broadcast(data, 0);
    received[static_cast<std::size_t>(c.rank())] = std::move(data);
  });
  EXPECT_EQ(ft::active_plan()->fired(), 1);
  // Rank 0's deposited contribution was flipped in transit, so every
  // rank (root included) received the corrupted copy: exactly one
  // element's bit pattern differs from the original.
  for (const auto& got : received) {
    ASSERT_EQ(got.size(), original.size());
    int diffs = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
      if (std::memcmp(&got[i], &original[i], sizeof(double)) != 0) ++diffs;
    EXPECT_EQ(diffs, 1);
  }
}

// ---------------------------------------------------------------------------
// SimComm: abort-poison root cause + injected crashes
// ---------------------------------------------------------------------------

// Regression (this PR's SimComm bugfix): surviving ranks used to unwind
// with a generic "SimComm aborted" error and run() rethrew the same —
// the first-throwing rank's original message was lost. Now run()
// rethrows the original exception and the poison reason names the rank
// and its what().
TEST(SimComm, AbortSurfacesOriginalExceptionMessage) {
  std::string survivor_saw;
  try {
    par::run(2, [&](par::Comm& c) {
      if (c.rank() == 1) throw std::runtime_error("original failure detail");
      try {
        c.barrier();
      } catch (const std::exception& e) {
        survivor_saw = e.what();
        throw;
      }
    });
    FAIL() << "run() must rethrow the rank-1 exception";
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "original failure detail");
  }
  EXPECT_NE(survivor_saw.find("rank 1 threw: original failure detail"),
            std::string::npos)
      << "survivor saw: " << survivor_saw;
}

TEST(SimComm, InjectedRankCrashPoisonsThenRestartSucceeds) {
  ft::ScopedFaults faults("rank_crash@step=0,rank=1");
  auto body = [](par::Comm& c) {
    c.barrier();
    const int sum = c.allreduce(1, par::ReduceOp::kSum);
    EXPECT_EQ(sum, c.size());
  };
  EXPECT_THROW(par::run(2, body), ft::InjectedCrash);
  // The crash budget (count=1) is spent: the restarted run — the
  // checkpoint/restart story at SimComm level — completes cleanly.
  EXPECT_NO_THROW(par::run(2, body));
}

// ---------------------------------------------------------------------------
// StepSentinel
// ---------------------------------------------------------------------------

TEST(StepSentinel, DisabledSentinelNeverTrips) {
  ft::StepSentinel s; // GuardOptions.enabled defaults to false
  const std::vector<double> bad = {std::nan("")};
  EXPECT_TRUE(s.check_values("x", bad));
  EXPECT_TRUE(s.check_energy("e", std::numeric_limits<double>::infinity()));
  EXPECT_EQ(s.trips(), 0);
}

TEST(StepSentinel, DetectsNonFiniteAndOutOfBoundValues) {
  ft::GuardOptions opt;
  opt.enabled = true;
  opt.max_abs = 10.0;
  ft::StepSentinel s(opt);
  EXPECT_TRUE(s.check_values("f", std::vector<double>{1.0, -9.9}));
  EXPECT_FALSE(s.check_values("f", std::vector<double>{1.0, std::nan("")}));
  EXPECT_FALSE(s.check_values("f", std::vector<double>{11.0}));
  EXPECT_EQ(s.trips(), 2);
  EXPECT_NE(s.last_what().find("f"), std::string::npos);
}

/// The message a plain serial scan gives for the first offending value
/// (the sentinel's wording), or "" for a clean field.
std::string serial_scan_message(const char* what, const std::vector<double>& v,
                                double max_abs) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i]))
      return std::string(what) + ": non-finite value at index " + std::to_string(i);
    if (max_abs > 0.0 && std::abs(v[i]) > max_abs)
      return std::string(what) + ": |value| " + std::to_string(v[i]) +
             " exceeds bound at " + std::to_string(i);
  }
  return "";
}

// check_values scans a field in blocks with a branch-free test and
// rescans only the first flagged block, so it must report what a serial
// scan reports: the same kind of fault at the same first index. A 3 * 128^2
// field (a guarded 128^2 pipeline's) with a NaN, an Inf or an over-bound
// value at index 0, on both sides of every power-of-two block boundary
// from 64 to 8192, and at the last index; then two bad values in one
// block, in either order, and with and without a magnitude bound.
TEST(StepSentinel, ReportsFirstOffendingIndexAcrossBlocks) {
  const std::size_t n = 3 * 128 * 128;
  std::vector<std::size_t> at = {0, n - 1};
  for (std::size_t b = 64; b <= 8192; b *= 2) at.insert(at.end(), {b - 1, b, b + 1});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double max_abs : {10.0, 0.0}) {
    ft::GuardOptions opt;
    opt.enabled = true;
    opt.max_abs = max_abs;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(0.01 * static_cast<double>(i));
    ft::StepSentinel s(opt);
    EXPECT_TRUE(s.check_values("field", v));
    std::vector<double> bads = {std::nan(""), inf, -inf};
    if (max_abs > 0.0) bads.insert(bads.end(), {11.0, -12.5});
    for (const std::size_t i : at)
      for (const double bad : bads) {
        auto w = v;
        w[i] = bad;
        const long trips = s.trips();
        EXPECT_FALSE(s.check_values("field", w)) << i << " " << bad;
        EXPECT_EQ(s.trips(), trips + 1);
        EXPECT_EQ(s.last_what(), serial_scan_message("field", w, max_abs))
            << i << " " << bad;
      }
    // Two bad values in one block: the lower index is reported.
    for (const auto& [a, b] : {std::pair{5000.0, inf}, {inf, 5000.0},
                               {-inf, std::nan("")}}) {
      auto w = v;
      w[4100] = a;
      w[4103] = b;
      const bool trips = max_abs > 0.0 || !std::isfinite(a) || !std::isfinite(b);
      EXPECT_EQ(s.check_values("field", w), !trips);
      if (trips) {
        EXPECT_EQ(s.last_what(), serial_scan_message("field", w, max_abs));
      }
    }
  }
}

TEST(StepSentinel, DetectsEnergyDriftAgainstFirstReference) {
  ft::GuardOptions opt;
  opt.enabled = true;
  opt.max_energy_drift = 0.1;
  ft::StepSentinel s(opt);
  EXPECT_TRUE(s.check_energy("e", 100.0)); // sets the reference
  EXPECT_TRUE(s.check_energy("e", 105.0)); // 5% drift: ok
  EXPECT_FALSE(s.check_energy("e", 130.0)); // 30% drift: trip
  s.reset_energy_reference();
  EXPECT_TRUE(s.check_energy("e", 130.0)); // new baseline after restore
}

// ---------------------------------------------------------------------------
// Pipeline: checkpoint/restore identity + the three recovery policies
// ---------------------------------------------------------------------------

pipeline::PipelineOptions tiny_pipeline() {
  pipeline::PipelineOptions opt;
  opt.lattice = 16;
  opt.superlattice = 1;
  opt.relax_steps = 50;
  opt.xs_steps = 30;
  opt.record_every = 5;
  return opt;
}

TEST(Pipeline, CheckpointRestoreContinuationIsBitwiseIdentical) {
  ScopedFile f("test_ft_pipeline.ckpt");
  auto reference = pipeline::run_pipeline(tiny_pipeline(), /*dark=*/true);

  // "Kill" at step 15: run half the trajectory and checkpoint it.
  auto first_half = tiny_pipeline();
  first_half.xs_steps = 15;
  first_half.checkpoint_every = 15;
  first_half.checkpoint_path = f.path;
  auto res_half = pipeline::run_pipeline(first_half, /*dark=*/true);
  EXPECT_EQ(res_half.checkpoints_written, 1);

  // Restore skips stages 1-2 entirely and resumes the XS loop at 15.
  auto second_half = tiny_pipeline();
  second_half.restore_path = f.path;
  auto res = pipeline::run_pipeline(second_half, /*dark=*/true);
  EXPECT_EQ(res.start_step, 15);
  EXPECT_EQ(res.q_final, reference.q_final);
  ASSERT_EQ(res.q_history.size(), reference.q_history.size());
  for (std::size_t i = 0; i < res.q_history.size(); ++i)
    EXPECT_EQ(res.q_history[i], reference.q_history[i]);
  EXPECT_EQ(res.switched, reference.switched);
}

TEST(Pipeline, AbortPolicyRaisesGuardTripped) {
  ft::ScopedFaults faults("inf_field@step=5");
  auto opt = tiny_pipeline();
  opt.guard.enabled = true;
  opt.guard.policy = ft::Policy::kAbort;
  try {
    pipeline::run_pipeline(opt, /*dark=*/true);
    FAIL() << "expected GuardTripped";
  } catch (const ft::GuardTripped& e) {
    EXPECT_NE(std::string(e.what()).find("step 5"), std::string::npos);
  }
}

TEST(Pipeline, RollbackPolicyReplaysAndCompletes) {
  ft::ScopedFaults faults("inf_field@step=5");
  auto opt = tiny_pipeline();
  opt.guard.enabled = true;
  opt.guard.policy = ft::Policy::kRollback;
  auto res = pipeline::run_pipeline(opt, /*dark=*/true);
  // One rollback to the step-0 snapshot; the fault budget (count=1) is
  // spent on the first firing, so the replay sails through.
  EXPECT_EQ(res.rollbacks, 1);
  for (double q : res.q_history) EXPECT_TRUE(std::isfinite(q));
  EXPECT_TRUE(std::isfinite(res.q_final));
}

TEST(Pipeline, DegradePolicySanitizesExactBackend) {
  ft::ScopedFaults faults("inf_field@step=5");
  auto opt = tiny_pipeline();
  opt.guard.enabled = true;
  opt.guard.policy = ft::Policy::kDegrade;
  auto res = pipeline::run_pipeline(opt, /*dark=*/true);
  // Exact backend: nothing to degrade to, so the injected Inf cells are
  // zeroed and the damped dynamics re-relaxes them.
  EXPECT_FALSE(res.degraded);
  for (double q : res.q_history) EXPECT_TRUE(std::isfinite(q));
  EXPECT_TRUE(std::isfinite(res.q_final));
}

TEST(Pipeline, DegradePolicySwapsNeuralForExactBackend) {
  ft::ScopedFaults faults("nan_force@step=3");
  auto gs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{8, 8}, 5);
  auto xs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{8, 8}, 6);
  auto opt = tiny_pipeline();
  opt.backend = pipeline::ForceBackend::kNeural;
  opt.gs_model = gs;
  opt.xs_model = xs;
  opt.guard.enabled = true;
  opt.guard.policy = ft::Policy::kDegrade;
  auto res = pipeline::run_pipeline(opt, /*dark=*/true);
  EXPECT_TRUE(res.degraded);
  for (double q : res.q_history) EXPECT_TRUE(std::isfinite(q));
  EXPECT_TRUE(std::isfinite(res.q_final));
}

TEST(Pipeline, NonFiniteProbeTripsGuardUnderEveryPolicy) {
  // A NaN in stage 2's DC-MESH forces reaches n_exc, which
  // excitation_weight would clamp to w = 0. Stage 2 has no snapshot to
  // roll back to and no baseline probe to degrade to, so every policy
  // aborts.
  for (ft::Policy policy :
       {ft::Policy::kAbort, ft::Policy::kRollback, ft::Policy::kDegrade}) {
    SCOPED_TRACE(static_cast<int>(policy));
    ft::ScopedFaults faults("nan_force@step=1");
    auto opt = tiny_pipeline();
    opt.guard.enabled = true;
    opt.guard.policy = policy;
    try {
      pipeline::run_pipeline(opt, /*dark=*/false);
      FAIL() << "expected GuardTripped";
    } catch (const ft::GuardTripped& e) {
      EXPECT_NE(std::string(e.what()).find("stage 2"), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// common::Cli unknown-flag rejection
// ---------------------------------------------------------------------------

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "pipeline", "--steps=3", "--stpes=4"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.unknown_keys({"steps"}),
            (std::vector<std::string>{"stpes"}));
  EXPECT_FALSE(cli.check_known({"steps"}, "usage hint"));
}

TEST(Cli, AcceptsKnownFlagsAndIgnoresPositionals) {
  const char* argv[] = {"prog", "pipeline", "--steps=3", "--trace"};
  Cli cli(4, argv);
  EXPECT_TRUE(cli.unknown_keys({"steps", "trace"}).empty());
  EXPECT_TRUE(cli.check_known({"steps", "trace"}, ""));
  EXPECT_EQ(cli.integer("steps", 0), 3);
}

} // namespace
