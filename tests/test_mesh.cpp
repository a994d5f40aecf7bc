// Tests for DC-MESH: the shadow-dynamics contract, photoexcitation vs
// dark dynamics, the Table I baseline runners, the SimComm multi-domain
// driver with Maxwell coupling, global-potential DC-MESH, and the
// observables recorder.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "mlmd/common/flops.hpp"
#include "mlmd/mesh/baseline.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/mesh/global_potential.hpp"
#include "mlmd/mesh/multidomain.hpp"
#include "mlmd/mesh/recorder.hpp"
#include "mlmd/par/transport.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::mesh;

MeshOptions fast_options() {
  MeshOptions opt;
  opt.lfd.dt_qd = 0.06;
  opt.nqd_per_md = 10;
  opt.lfd.hartree_every = 5;
  opt.lfd.nlp_every = 5;
  return opt;
}

DcMeshDomain make_domain(MeshOptions opt = fast_options()) {
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
  return DcMeshDomain(g, 4, 2, ions, opt);
}

TEST(DcMesh, DarkStepKeepsOccupationsSane) {
  auto dom = make_domain();
  auto stats = dom.md_step(nullptr);
  for (double f : dom.lfd().occupations()) {
    EXPECT_GE(f, -1e-9);
    EXPECT_LE(f, 2.0 + 1e-9);
  }
  EXPECT_GE(stats.n_exc, 0.0);
  EXPECT_GT(dom.time(), 0.0);
}

TEST(DcMesh, ShadowTrafficTinyVsWavefunctions) {
  auto dom = make_domain();
  auto stats = dom.md_step(nullptr);
  // The paper's claim (Sec. V.A.3): occupation traffic is negligible
  // compared to the resident wavefunction arrays.
  EXPECT_GT(stats.wavefunction_bytes, 100 * stats.bytes_lfd_to_qxmd);
  // delta_v_loc is one scalar field: N_grid doubles.
  EXPECT_EQ(stats.bytes_qxmd_to_lfd, 8u * 8 * 8 * 8);
  // delta_f is N_orb doubles.
  EXPECT_EQ(stats.bytes_lfd_to_qxmd, 4u * 8);
}

TEST(DcMesh, PulseExcitesMoreThanDark) {
  auto lit = make_domain();
  auto dark = make_domain();
  maxwell::Pulse pulse;
  pulse.e0 = 0.15;
  pulse.omega = 0.15;
  pulse.fwhm = 30.0;
  pulse.t0 = 1.5 * lit.md_dt();
  double n_lit = 0, n_dark = 0;
  for (int s = 0; s < 3; ++s) {
    n_lit = lit.md_step(&pulse).n_exc;
    n_dark = dark.md_step(nullptr).n_exc;
  }
  EXPECT_GE(n_lit, n_dark);
}

TEST(DcMesh, FixedVectorPotentialPath) {
  auto dom = make_domain();
  auto stats = dom.md_step_with_a(0.3);
  EXPECT_GE(stats.n_exc, 0.0);
  auto j = dom.current(0.3);
  EXPECT_TRUE(std::isfinite(j[0]) && std::isfinite(j[1]) && std::isfinite(j[2]));
}

TEST(DcMesh, IonsStayBounded) {
  auto dom = make_domain();
  for (int s = 0; s < 5; ++s) {
    auto stats = dom.md_step(nullptr);
    EXPECT_LT(stats.ion_max_disp, 1.0); // spring keeps the toy lattice bound
  }
}

TEST(Baseline, GlobalAndDcProduceTimings) {
  auto base = run_global_baseline(8, 4, 2);
  EXPECT_GT(base.seconds_per_qd_step, 0.0);
  EXPECT_EQ(base.electrons, 8u);
  auto dc = run_dc_domain(8, 4, 2);
  EXPECT_GT(dc.seconds_per_qd_step, 0.0);
}

TEST(Baseline, GlobalPerElectronCostGrowsWithSize) {
  // The structural Table I claim: baseline cost/electron grows with the
  // orbital count (O(N^2) orthogonalization); allow generous margin but
  // require clear growth over a 8x size ratio. Cost is the analytic FLOP
  // count, which is deterministic; bench_table1_t2s reports the measured
  // wall-clock growth.
  auto flops_per_electron = [](std::size_t n, std::size_t norb) {
    flops::Scope scope;
    const auto r = run_global_baseline(n, norb, 3);
    return static_cast<double>(scope.flops()) / static_cast<double>(r.electrons);
  };
  const double small = flops_per_electron(8, 4);
  const double large = flops_per_electron(12, 32);
  EXPECT_GT(large, 1.5 * small);
}

TEST(Multidomain, RunsAndGathersNexc) {
  ParallelMeshOptions opt;
  opt.md_steps = 1;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh = fast_options();
  auto res = run_parallel_mesh(3, opt);
  ASSERT_EQ(res.n_exc_per_domain.size(), 3u);
  for (double v : res.n_exc_per_domain) EXPECT_GE(v, 0.0);
  // Communication pattern: per MD step one current allgather (per rank)
  // plus one final gather per rank.
  EXPECT_GE(res.traffic.collective_ops, 3u * 2u);
  EXPECT_GT(res.traffic.collective_bytes, 0u);
}

TEST(Multidomain, SingleRankWorks) {
  ParallelMeshOptions opt;
  opt.md_steps = 1;
  opt.mesh = fast_options();
  auto res = run_parallel_mesh(1, opt);
  ASSERT_EQ(res.n_exc_per_domain.size(), 1u);
}

TEST(Multidomain, AsyncCommBitIdenticalToSync) {
  // --comm=async posts the current allgather before the A-independent
  // half of the MD step and splits the step around the wait; the op
  // order, payloads, and arithmetic are unchanged, so every gathered
  // observable — and the metered traffic — must be bit-identical to the
  // synchronous loop, not merely close.
  ParallelMeshOptions opt;
  opt.md_steps = 2;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh = fast_options();
  const par::CommMode saved = par::default_comm_mode();
  par::set_default_comm_mode(par::CommMode::kSync);
  auto s = run_parallel_mesh(3, opt);
  par::set_default_comm_mode(par::CommMode::kAsync);
  auto a = run_parallel_mesh(3, opt);
  par::set_default_comm_mode(saved);
  ASSERT_EQ(s.n_exc_per_domain.size(), a.n_exc_per_domain.size());
  for (std::size_t i = 0; i < s.n_exc_per_domain.size(); ++i)
    EXPECT_EQ(s.n_exc_per_domain[i], a.n_exc_per_domain[i]) << "domain " << i;
  EXPECT_EQ(s.traffic.collective_bytes, a.traffic.collective_bytes);
  ASSERT_EQ(s.rank_traffic.size(), a.rank_traffic.size());
  for (std::size_t r = 0; r < s.rank_traffic.size(); ++r) {
    unsigned long long sb = 0, ab = 0;
    for (const auto& [op, st] : s.rank_traffic[r].ops) sb += st.bytes;
    for (const auto& [op, st] : a.rank_traffic[r].ops) ab += st.bytes;
    EXPECT_EQ(sb, ab) << "rank " << r;
  }
  // The async loop really went through the nonblocking path.
  for (const auto& rt : a.rank_traffic) {
    EXPECT_GT(rt.handles_posted, 0u);
    EXPECT_EQ(rt.handles_posted, rt.handles_completed);
  }
  for (const auto& rt : s.rank_traffic) EXPECT_EQ(rt.handles_posted, 0u);
}

TEST(Multidomain, DeterministicAcrossRuns) {
  ParallelMeshOptions opt;
  opt.md_steps = 1;
  opt.mesh = fast_options();
  auto a = run_parallel_mesh(2, opt);
  auto b = run_parallel_mesh(2, opt);
  ASSERT_EQ(a.n_exc_per_domain.size(), b.n_exc_per_domain.size());
  for (std::size_t i = 0; i < a.n_exc_per_domain.size(); ++i)
    EXPECT_DOUBLE_EQ(a.n_exc_per_domain[i], b.n_exc_per_domain[i]);
}

// --- global-potential DC-MESH ----------------------------------------------

mesh::GlobalMeshOptions small_global_options() {
  mesh::GlobalMeshOptions opt;
  opt.global = grid::Grid3{12, 12, 12, 0.7, 0.7, 0.7};
  opt.domains_per_axis = 2;
  opt.buffer = 2;
  opt.norb = 2;
  opt.nfilled = 1;
  opt.md_steps = 2;
  opt.nqd_per_md = 6;
  opt.lfd.dt_qd = 0.06;
  opt.lfd.init_relax_steps = 10;
  opt.pulse.e0 = 0.1;
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 20.0;
  opt.pulse.t0 = 6.0 * 0.06;
  return opt;
}

TEST(GlobalMesh, ConservesElectronCountWithoutBuffers) {
  // With zero buffer the cores tile the local grids exactly, so the
  // recombined density carries every electron.
  auto opt = small_global_options();
  opt.use_pulse = false;
  opt.buffer = 0;
  auto res = mesh::run_global_mesh(opt);
  ASSERT_EQ(res.n_exc_per_domain.size(), 8u);
  EXPECT_NEAR(res.total_electrons, 16.0, 0.5);
  for (double v : res.n_exc_per_domain) EXPECT_GE(v, 0.0);
}

TEST(GlobalMesh, BufferedRunKeepsCoreResidentFraction) {
  // With overlap, each domain contributes only its orbitals' core-
  // resident weight: the recombined count is bounded by 16 and well
  // above zero (DC-DFT's overlap accounting, paper Sec. VII.A.1).
  auto opt = small_global_options();
  opt.use_pulse = false;
  auto res = mesh::run_global_mesh(opt);
  EXPECT_LE(res.total_electrons, 16.0 + 1e-6);
  EXPECT_GT(res.total_electrons, 2.0);
}

TEST(GlobalMesh, DensityAllreducePerStep) {
  auto opt = small_global_options();
  auto res = mesh::run_global_mesh(opt);
  // Each rank performs >= md_steps density allreduces (an allreduce is
  // one allgather collective per rank in SimComm) plus the final gather.
  EXPECT_GE(res.traffic.collective_ops, 8u * (2u + 1u));
  // The density payload dominates: grid doubles per rank per step.
  EXPECT_GT(res.traffic.collective_bytes,
            8u * 2u * 12u * 12u * 12u * sizeof(double));
}

TEST(GlobalMesh, Deterministic) {
  auto a = mesh::run_global_mesh(small_global_options());
  auto b = mesh::run_global_mesh(small_global_options());
  ASSERT_EQ(a.n_exc_per_domain.size(), b.n_exc_per_domain.size());
  for (std::size_t i = 0; i < a.n_exc_per_domain.size(); ++i)
    EXPECT_DOUBLE_EQ(a.n_exc_per_domain[i], b.n_exc_per_domain[i]);
}

// --- observables recorder --------------------------------------------------------

TEST(Recorder, CapturesAndRoundTripsCsv) {
  grid::Grid3 g{8, 8, 8, 0.7, 0.7, 0.7};
  std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
  mesh::MeshOptions opt;
  opt.nqd_per_md = 6;
  opt.lfd.dt_qd = 0.06;
  mesh::DcMeshDomain dom(g, 4, 2, ions, opt);

  mesh::Recorder rec;
  maxwell::Pulse pulse;
  pulse.e0 = 0.08;
  pulse.t0 = dom.md_dt();
  for (int s = 0; s < 3; ++s) {
    auto stats = dom.md_step(&pulse);
    rec.record(dom, stats, pulse.apot(dom.time()));
  }
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_GT(rec.rows()[2].t, rec.rows()[0].t);
  EXPECT_EQ(rec.n_exc_series().size(), 3u);

  const std::string path = ::testing::TempDir() + "mesh_obs.csv";
  rec.write_csv(path);
  auto rows = mesh::Recorder::read_csv(path);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(rows[i].t, rec.rows()[i].t, 1e-9);
    EXPECT_NEAR(rows[i].n_exc, rec.rows()[i].n_exc, 1e-9);
    EXPECT_EQ(rows[i].shadow_bytes, rec.rows()[i].shadow_bytes);
  }
  std::remove(path.c_str());
}

TEST(Recorder, ReadMissingThrows) {
  EXPECT_THROW(mesh::Recorder::read_csv("/nonexistent/obs.csv"),
               std::runtime_error);
}

} // namespace
