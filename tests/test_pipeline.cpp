// End-to-end tests of the MLMD pipeline (Fig. 3): topological switching
// with light, stability without, and the neural force backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "mlmd/mlmd/pipeline.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/topo/topology.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::pipeline;

PipelineOptions small_options() {
  PipelineOptions opt;
  opt.lattice = 32;
  opt.superlattice = 2;
  opt.relax_steps = 150;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh_md_steps = 2;
  opt.mesh.nqd_per_md = 10;
  opt.mesh.lfd.dt_qd = 0.06;
  opt.xs_steps = 250;
  opt.record_every = 50;
  opt.pulse.e0 = 0.15;
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 30.0;
  opt.n_sat = 0.02;
  return opt;
}

TEST(Pipeline, DarkRunPreservesTopology) {
  auto res = run_pipeline(small_options(), /*dark=*/true);
  EXPECT_DOUBLE_EQ(res.n_exc, 0.0);
  EXPECT_DOUBLE_EQ(res.w, 0.0);
  EXPECT_GT(std::abs(res.q_initial), 3.0); // 4 skyrmions prepared
  EXPECT_FALSE(res.switched);
  EXPECT_NEAR(res.q_final, res.q_initial, 0.5);
}

TEST(Pipeline, PumpedRunSwitchesTopology) {
  auto res = run_pipeline(small_options(), /*dark=*/false);
  EXPECT_GT(res.n_exc, 0.0);
  EXPECT_GT(res.w, 0.5); // saturated by the low n_sat
  EXPECT_TRUE(res.switched);
  EXPECT_GT(std::abs(res.q_final - res.q_initial), 0.5 * std::abs(res.q_initial));
}

TEST(Pipeline, HistoryRecorded) {
  auto opt = small_options();
  auto res = run_pipeline(opt, true);
  // initial frame + xs_steps / record_every.
  EXPECT_EQ(res.q_history.size(),
            1u + static_cast<std::size_t>(opt.xs_steps / opt.record_every));
}

TEST(Pipeline, NeuralBackendRequiresModels) {
  auto opt = small_options();
  opt.backend = ForceBackend::kNeural;
  EXPECT_THROW(run_pipeline(opt, true), std::invalid_argument);
}

TEST(Pipeline, NeuralBackendRuns) {
  // Train tiny GS/XS models and run the neural XS stage; assert sane
  // output (finite Q history), not physical accuracy at this tiny budget.
  auto gs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
  auto xs_data = nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
  auto gs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{12, 12}, 5);
  auto xs = std::make_shared<nnq::LatticeModel>(
      std::vector<std::size_t>{12, 12}, 6);
  nnq::TrainOptions topt;
  topt.epochs = 10;
  nnq::train_energy(gs->net(), gs_data, topt);
  nnq::train_energy(xs->net(), xs_data, topt);

  auto opt = small_options();
  opt.backend = ForceBackend::kNeural;
  opt.gs_model = gs;
  opt.xs_model = xs;
  opt.lattice = 16;
  opt.superlattice = 1;
  opt.xs_steps = 50;
  opt.record_every = 25;
  auto res = run_pipeline(opt, /*dark=*/true);
  for (double q : res.q_history) EXPECT_TRUE(std::isfinite(q));
}

TEST(Pipeline, ExcitationWeightScalesWithSaturation) {
  auto opt = small_options();
  opt.n_sat = 1e9; // effectively unsaturable -> w ~ 0 -> no switching
  auto res = run_pipeline(opt, false);
  EXPECT_LT(res.w, 1e-3);
  EXPECT_FALSE(res.switched);
}

// ---------------------------------------------------------------------------
// pipeline::Session: re-entrant interleaved execution (ISSUE 9)
// ---------------------------------------------------------------------------

PipelineOptions session_options() {
  auto opt = small_options();
  opt.lattice = 16;
  opt.superlattice = 1;
  opt.relax_steps = 60;
  opt.xs_steps = 40;
  opt.record_every = 10;
  return opt;
}

void expect_bitwise_equal(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.n_exc, b.n_exc);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.q_initial, b.q_initial);
  EXPECT_EQ(a.q_final, b.q_final);
  EXPECT_EQ(a.switched, b.switched);
  ASSERT_EQ(a.q_history.size(), b.q_history.size());
  for (std::size_t i = 0; i < a.q_history.size(); ++i)
    EXPECT_EQ(a.q_history[i], b.q_history[i]);
}

TEST(Session, InterleavedLightAndDarkMatchRunPipelineBitwise) {
  const auto opt = session_options();
  const auto ref_light = run_pipeline(opt, /*dark=*/false);
  const auto ref_dark = run_pipeline(opt, /*dark=*/true);

  // One light + one dark scenario advanced a step at a time, round-robin
  // on one thread — the serve scheduler's execution shape.
  Session light(opt, /*dark=*/false);
  Session dark(opt, /*dark=*/true);
  light.prepare();
  dark.prepare();
  while (!light.done() || !dark.done()) {
    light.step();
    dark.step();
  }
  expect_bitwise_equal(light.result(), ref_light);
  expect_bitwise_equal(dark.result(), ref_dark);
}

TEST(Session, PumpedMeshProbeBitIdenticalAcrossThreadCounts) {
  // A 16^3 mesh grid splits the lfd and mg grid loops of the DC-MESH
  // probe into several pool chunks; n_exc, w and the stage-3 trajectory
  // must not depend on the thread count.
  auto opt = session_options();
  opt.grid_n = 16;
  opt.n_sat = 1e3; // unsaturated: w carries every bit of n_exc
  par::ThreadPool::set_global_threads(1);
  const auto ref = run_pipeline(opt, /*dark=*/false);
  par::ThreadPool::set_global_threads(4);
  const auto got = run_pipeline(opt, /*dark=*/false);
  par::ThreadPool::set_global_threads(0);
  EXPECT_GT(ref.n_exc, 0.0);
  EXPECT_EQ(std::memcmp(&got.n_exc, &ref.n_exc, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.w, &ref.w, sizeof(double)), 0);
  ASSERT_EQ(got.q_history.size(), ref.q_history.size());
  EXPECT_EQ(std::memcmp(got.q_history.data(), ref.q_history.data(),
                        ref.q_history.size() * sizeof(double)),
            0);
}

TEST(Session, ExactLattice128BitIdenticalAcrossThreadCounts) {
  // At 128^2 the stage-3 lattice step and the topological charge split
  // into 8 pool chunks; the trajectory and its charge history must not
  // depend on the thread count, pumped or dark.
  auto opt = small_options();
  opt.lattice = 128;
  opt.superlattice = 4;
  opt.xs_steps = 400;
  opt.record_every = 20;
  for (const bool dark : {false, true}) {
    SCOPED_TRACE(dark ? "dark" : "pumped");
    std::vector<double> ref_q;
    std::vector<ferro::Vec3> ref_u;
    for (const int threads : {1, 4}) {
      par::ThreadPool::set_global_threads(threads);
      Session s(opt, dark);
      while (s.step()) {
      }
      const auto& q = s.result().q_history;
      const auto& u = s.lattice().field();
      if (threads == 1) {
        ref_q = q;
        ref_u = u;
        continue;
      }
      ASSERT_EQ(q.size(), ref_q.size());
      EXPECT_EQ(std::memcmp(q.data(), ref_q.data(), q.size() * sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(u.data(), ref_u.data(), u.size() * sizeof(ferro::Vec3)), 0);
    }
  }
  par::ThreadPool::set_global_threads(0);
}

TEST(Session, InterleavedCheckpointRestoreMatchesBitwise) {
  const std::string ckpt = "test_session_interleaved.ckpt";
  auto opt = session_options();
  const auto reference = run_pipeline(opt, /*dark=*/true);

  // Interleave a checkpointing dark session with an independent light
  // one; abandon the dark session at step 20 (its last checkpoint).
  auto copt = opt;
  copt.checkpoint_every = 10;
  copt.checkpoint_path = ckpt;
  {
    Session dark(copt, /*dark=*/true);
    Session light(opt, /*dark=*/false);
    dark.prepare();
    light.prepare();
    while (dark.step_index() < 20) {
      dark.step();
      light.step();
    }
  }

  // A fresh Session restores the checkpoint and finishes, still
  // interleaved with an unrelated scenario.
  auto ropt = opt;
  ropt.restore_path = ckpt;
  Session resumed(ropt, /*dark=*/true);
  Session other(opt, /*dark=*/false);
  resumed.prepare();
  other.prepare();
  EXPECT_EQ(resumed.result().start_step, 20);
  while (!resumed.done()) {
    resumed.step();
    other.step();
  }
  expect_bitwise_equal(resumed.result(), reference);
  std::remove(ckpt.c_str());
}

TEST(Session, StepWithRejectsNonNeuralSessions) {
  Session s(session_options(), /*dark=*/true);
  s.prepare();
  EXPECT_FALSE(s.wants_neural_forces()); // kExact backend
  EXPECT_THROW(s.step_with({}), std::logic_error);
}

} // namespace
