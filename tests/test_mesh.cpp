// Tests for DC-MESH: the shadow-dynamics contract, photoexcitation vs
// dark dynamics, the Table I baseline runners, the SimComm multi-domain
// driver with Maxwell coupling, and the observables recorder.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/mesh/baseline.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/mesh/multidomain.hpp"
#include "mlmd/mesh/recorder.hpp"

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
  auto pending = dom.md_step_begin();
  auto stats = dom.md_step_finish(pending, 0.3);
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

TEST(Multidomain, OverlappedLoopBitIdenticalToSerialOracle) {
  // run_parallel_mesh posts the current allgather before the A-independent
  // half of each MD step and finishes the step after the Maxwell advance.
  // The oracle steps the same domains and one Maxwell1D in a plain loop
  // with no SimComm; every domain's n_exc must match bitwise. One macro
  // cell per domain and 40 QD steps per MD step let the field launched at
  // cell 2 reach the domains (cells 8-10) within three MD steps, so the
  // domains see different A.
  constexpr int kDomains = 3;
  ParallelMeshOptions opt;
  opt.md_steps = 3;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh = fast_options();
  opt.mesh.nqd_per_md = 40;
  opt.maxwell_cells_per_domain = 1;
  opt.pulse.e0 = 0.05;
  const auto res = run_parallel_mesh(kDomains, opt);

  // The geometry of run_parallel_mesh: 8 vacuum cells of 200 Bohr on each
  // side, the source at cell 2, each domain at the centre of its span.
  const std::size_t pad = 8;
  const std::size_t ncells = 2 * pad + kDomains * opt.maxwell_cells_per_domain;
  const double dx = 200.0;
  const double dt_em = 0.5 * dx / units::c_light;
  maxwell::Maxwell1D em(ncells, dx, dt_em);
  em.set_source(2, opt.pulse);
  const grid::Grid3 g{opt.grid_n, opt.grid_n, opt.grid_n, 0.7, 0.7, 0.7};
  const std::vector<lfd::Ion> ions = {
      {0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
  std::vector<DcMeshDomain> doms;
  std::vector<std::size_t> cells;
  for (std::size_t d = 0; d < kDomains; ++d) {
    doms.emplace_back(g, opt.norb, opt.nfilled, ions, opt.mesh);
    cells.push_back(pad + d * opt.maxwell_cells_per_domain +
                    opt.maxwell_cells_per_domain / 2);
  }
  const int em_substeps =
      std::max(1, static_cast<int>(doms[0].md_dt() / dt_em));
  const auto axis = static_cast<std::size_t>(opt.mesh.polarization_axis);
  std::vector<double> j_cells(ncells, 0.0);
  for (int step = 0; step < opt.md_steps; ++step) {
    for (std::size_t d = 0; d < kDomains; ++d)
      j_cells[cells[d]] = doms[d].current(em.a_at(cells[d]))[axis];
    std::vector<PendingStep> pending;
    for (auto& dom : doms) pending.push_back(dom.md_step_begin());
    for (int s = 0; s < em_substeps; ++s) em.step(j_cells);
    for (std::size_t d = 0; d < kDomains; ++d)
      doms[d].md_step_finish(pending[d], em.a_at(cells[d]));
  }

  ASSERT_EQ(res.n_exc_per_domain.size(), doms.size());
  for (std::size_t d = 0; d < kDomains; ++d)
    EXPECT_EQ(res.n_exc_per_domain[d], doms[d].lfd().n_exc()) << "domain " << d;
  // The coupling is live: the domains did not all see the same field.
  EXPECT_NE(res.n_exc_per_domain[0], res.n_exc_per_domain[1]);
  // Every rank went through the nonblocking allgather and completed it.
  ASSERT_EQ(res.rank_traffic.size(), doms.size());
  for (const auto& rt : res.rank_traffic) {
    EXPECT_GT(rt.handles_posted, 0u);
    EXPECT_EQ(rt.handles_posted, rt.handles_completed);
  }
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
