// The traced run's replay of the pipeline: the public calls
// Session::prepare and Session::step make, issued from here in the
// pipeline's order so each module's share can be timed from outside the
// library. Every replayed result is checked bitwise against the untraced
// run, which is what makes the per-layer numbers describe the same work.

#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/obs/trace.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/topo/topology.hpp"

namespace e2e {

using mlmd::pipeline::ForceBackend;
using mlmd::pipeline::Session;

namespace {

/// Bytes one FerroLattice::step touches per cell, computed from array
/// sizes (not measured): the force pass reads u (24 B) and w (8 B) and
/// writes f (24 B); the update reads f, and reads and writes v and u
/// (24 + 48 + 48 B). Cache misses are ignored.
constexpr double kFerroBytesPerCellStep = 176.0;

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

} // namespace

Prepared replay_prepare(const Scenario& s, SpanLog* log) {
  const PipelineOptions& opt = s.opt;
  Prepared p{mlmd::ferro::FerroLattice(opt.lattice, opt.lattice, opt.ferro),
             {}};
  Scoped prepare(log, "mlmd.prepare", s.id);
  {
    Scoped sp(log, "topo.init", s.id);
    mlmd::topo::init_skyrmion_superlattice(p.lat, opt.superlattice,
                                           opt.superlattice);
  }
  {
    Scoped sp(log, "ferro.relax", s.id);
    const mlmd::flops::Scope fl;
    for (int i = 0; i < opt.relax_steps; ++i) p.lat.step();
    sp.add_work(static_cast<double>(p.lat.ncells()) * opt.relax_steps,
                static_cast<double>(fl.flops()));
  }
  {
    Scoped sp(log, "topo.charge", s.id);
    p.res.q_initial = mlmd::topo::topological_charge(p.lat);
  }
  if (!s.dark) {
    const mlmd::grid::Grid3 g{opt.grid_n, opt.grid_n, opt.grid_n,
                              0.7,        0.7,        0.7};
    const std::vector<mlmd::lfd::Ion> ions = {mlmd::lfd::Ion{
        0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
    std::optional<mlmd::mesh::DcMeshDomain> dom;
    {
      Scoped sp(log, "mesh.setup", s.id);
      dom.emplace(g, opt.norb, opt.nfilled, ions, opt.mesh);
    }
    mlmd::maxwell::Pulse pulse = opt.pulse;
    pulse.t0 = 0.5 * opt.mesh_md_steps * dom->md_dt();
    for (int i = 0; i < opt.mesh_md_steps; ++i) {
      Scoped sp(log, "mesh.md_step", s.id);
      dom->md_step(&pulse);
    }
    p.res.n_exc = dom->lfd().n_exc();
    Scoped sp(log, "mesh.teardown", s.id);
    dom.reset();
  }
  {
    Scoped sp(log, "nnq.excitation_weight", s.id);
    p.res.w = mlmd::nnq::excitation_weight(p.res.n_exc, opt.n_sat);
  }
  p.res.q_history.push_back(p.res.q_initial);
  if (opt.backend != ForceBackend::kNeural)
    p.lat.set_uniform_excitation(0.5 * p.res.w);
  return p;
}

void replay_exact_stage3(const Scenario& s, Prepared& p, SpanLog* log) {
  const PipelineOptions& opt = s.opt;
  const auto cells = static_cast<double>(p.lat.ncells());
  Scoped stage3(log, "mlmd.stage3", s.id);
  for (long step = 1; step <= opt.xs_steps; ++step) {
    {
      Scoped sp(log, "ferro.step", s.id);
      p.lat.step();
      sp.add_work(cells);
    }
    if (step % opt.record_every == 0) {
      Scoped sp(log, "topo.charge", s.id);
      p.res.q_history.push_back(mlmd::topo::topological_charge(p.lat));
    }
  }
  Scoped sp(log, "topo.charge", s.id);
  p.res.q_final = mlmd::topo::topological_charge(p.lat);
  p.res.switched = std::abs(p.res.q_final - p.res.q_initial) >
                   0.5 * std::abs(p.res.q_initial);
}

std::vector<PipelineResult> replay_neural_stage3(
    const std::vector<const Scenario*>& group, long group_id, SpanLog* log) {
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<const mlmd::ferro::FerroLattice*> lats;
  std::vector<double> n_exc, n_sat;
  for (const Scenario* s : group) {
    sessions.push_back(std::make_unique<Session>(s->opt, s->dark));
    {
      Scoped sp(log, "mlmd.session_prepare", s->id);
      sessions.back()->prepare();
    }
    lats.push_back(&sessions.back()->lattice());
    n_exc.push_back(sessions.back()->n_exc());
    n_sat.push_back(sessions.back()->n_sat());
  }
  const auto& gs = *group.front()->opt.gs_model;
  const auto& xs = *group.front()->opt.xs_model;
  double cells = 0.0;
  for (const auto* l : lats) cells += static_cast<double>(l->ncells());

  {
    Scoped stage3(log, "mlmd.stage3", group_id);
    while (!sessions.front()->done()) {
      std::vector<std::vector<mlmd::ferro::Vec3>> f;
      {
        Scoped sp(log, "nnq.forces", group_id);
        const mlmd::flops::Scope fl;
        f = mlmd::nnq::xs_mixed_forces_multi(gs, xs, lats, n_exc, n_sat);
        sp.add_work(cells, static_cast<double>(fl.flops()));
      }
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        Scoped sp(log, "mlmd.step_with", group[i]->id);
        sessions[i]->step_with(std::move(f[i]));
      }
    }
  }
  std::vector<PipelineResult> out;
  for (const auto& s : sessions) out.push_back(s->result());
  return out;
}

double replay_and_report(const std::vector<Scenario>& scenarios,
                         const std::vector<PipelineResult>& expected,
                         std::size_t batch_max, int threads, Report& r) {
  namespace obs = mlmd::obs;
  SpanLog log;
  obs::Tracer::clear();
  obs::Tracer::enable(true);

  std::vector<Prepared> prepared;
  prepared.reserve(scenarios.size());
  for (const auto& s : scenarios) prepared.push_back(replay_prepare(s, &log));

  std::size_t mismatches = 0;
  std::vector<const Scenario*> group;
  std::vector<std::size_t> group_idx;
  const auto flush_group = [&] {
    if (group.empty()) return;
    auto res = replay_neural_stage3(group, -1 - group.front()->id, &log);
    for (std::size_t k = 0; k < res.size(); ++k)
      if (!same_physics(res[k], expected[group_idx[k]])) ++mismatches;
    group.clear();
    group_idx.clear();
  };
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    if (s.opt.backend == ForceBackend::kExact) {
      replay_exact_stage3(s, prepared[i], &log);
      if (!same_physics(prepared[i].res, expected[i])) ++mismatches;
      continue;
    }
    // Stage 3 runs on Sessions of its own; the replayed prepare is
    // checked against the served result here.
    const PipelineResult& want = expected[i];
    if (!same_bits(prepared[i].res.n_exc, want.n_exc) ||
        !same_bits(prepared[i].res.w, want.w) ||
        !same_bits(prepared[i].res.q_initial, want.q_initial))
      ++mismatches;
    if (!group.empty() && (group.size() == batch_max ||
                           group.front()->opt.xs_steps != s.opt.xs_steps))
      flush_group();
    group.push_back(&s);
    group_idx.push_back(i);
  }
  flush_group();
  obs::Tracer::enable(false);
  const auto ev = obs::Tracer::snapshot();
  if (obs::Tracer::dropped() > 0)
    std::printf("warning: tracer dropped %llu program spans\n",
                static_cast<unsigned long long>(obs::Tracer::dropped()));
  r.check(mismatches == 0,
          "traced replay of " + std::to_string(scenarios.size()) +
              " scenarios is bitwise equal to the untraced results");

  // Single-thread baseline of the kExact stage-3 lattice steps.
  SpanLog t1;
  mlmd::par::ThreadPool::set_global_threads(1);
  std::size_t t1_mismatches = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i].opt.backend != ForceBackend::kExact) continue;
    Prepared p = replay_prepare(scenarios[i], nullptr);
    replay_exact_stage3(scenarios[i], p, &t1);
    if (!same_physics(p.res, expected[i])) ++t1_mismatches;
  }
  mlmd::par::ThreadPool::set_global_threads(threads);
  if (t1.count("ferro.step") > 0)
    r.check(t1_mismatches == 0,
            "one-thread kExact replay is bitwise equal to the untraced results");

  const double n = static_cast<double>(scenarios.size());
  const double prepare = log.seconds("mlmd.prepare");
  const double stage3 = log.seconds("mlmd.stage3");
  r.set("mlmd.prepare_s", prepare / n);
  r.set("mlmd.stage3_s", stage3 / n);
  r.set("mlmd.stage3_self_s",
        (stage3 - log.covered_by_children(
                      "mlmd.stage3", {"ferro.step", "topo.charge", "nnq.forces"})) /
            n);
  r.set("mlmd.prepare.attributed_share",
        ratio(log.covered_by_children("mlmd.prepare", {}), prepare));
  r.set("mlmd.stage3.attributed_share",
        ratio(log.covered_by_children("mlmd.stage3", {}), stage3));

  const double ferro_step = log.seconds("ferro.step");
  r.set("ferro.step_s", ferro_step / n);
  r.set("ferro.ns_per_cell_step", 1e9 * ratio(ferro_step, log.cells("ferro.step")));
  r.set("ferro.step_s_t1", t1.seconds("ferro.step") / n);
  r.set("ferro.relax_s", log.seconds("ferro.relax") / n);
  r.set("ferro.flops_per_byte",
        ratio(log.flops("ferro.relax"),
              kFerroBytesPerCellStep * log.cells("ferro.relax")));

  r.set("topo.charge_s", log.seconds("topo.charge") / n);
  r.set("topo.charge_calls", static_cast<double>(log.count("topo.charge")) / n);
  r.set("topo.init_s", log.seconds("topo.init") / n);

  const double forces = log.seconds("nnq.forces");
  r.set("nnq.forces_s", forces / n);
  r.set("nnq.ns_per_cell_eval", 1e9 * ratio(forces, log.cells("nnq.forces")));
  r.set("nnq.gflops", 1e-9 * ratio(log.flops("nnq.forces"), forces));
  r.set("la.gemm_s", log.covered_by_program("nnq.forces", ev, "gemm") / n);
  r.set("nnq.forces.attributed_share",
        ratio(log.covered_by_program("nnq.forces", ev, ""), forces));

  r.set("mesh.setup_s", log.seconds("mesh.setup") / n);
  r.set("mesh.md_step_s", log.seconds("mesh.md_step") / n);
  r.set("lfd.kin_prop_s", log.covered_by_program("mesh.md_step", ev, "lfd.kin_prop") / n);
  r.set("lfd.vloc_prop_s", log.covered_by_program("mesh.md_step", ev, "lfd.vloc_prop") / n);
  r.set("lfd.nlp_prop_s", log.covered_by_program("mesh.md_step", ev, "lfd.nlp_prop") / n);
  r.set("lfd.hartree_s", log.covered_by_program("mesh.md_step", ev, "lfd.hartree") / n);

  double launch_s = 0.0, launches = 0.0;
  for (const auto& e : ev)
    if (std::string_view(e.name) == "pool.launch") {
      launch_s += static_cast<double>(e.dur_ns) * 1e-9;
      launches += 1.0;
    }
  r.set("par.pool_launch_s", launch_s / n);
  r.set("par.pool_launches", launches / n);

  // Named children per parent, so the attribution gaps can be read off.
  for (const char* parent : {"mlmd.prepare", "mlmd.stage3"}) {
    std::printf("trace %-14s %.6f s/scenario:", parent, log.seconds(parent) / n);
    for (const char* child :
         {"topo.init", "ferro.relax", "topo.charge", "mesh.setup",
          "mesh.md_step", "mesh.teardown", "nnq.excitation_weight",
          "ferro.step", "nnq.forces", "mlmd.step_with"}) {
      const double c = log.covered_by_children(parent, {child});
      if (c > 0.0) std::printf(" %s=%.6f", child, c / n);
    }
    std::printf("\n");
  }
  if (log.count("mlmd.session_prepare") > 0)
    std::printf("trace mlmd.session_prepare %.6f s/scenario (Sessions built "
                "for step_with; outside the replayed tree)\n",
                log.seconds("mlmd.session_prepare") / n);
  return prepare + stage3;
}

} // namespace e2e
