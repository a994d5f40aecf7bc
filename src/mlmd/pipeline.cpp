#include "mlmd/mlmd/pipeline.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "mlmd/ft/checkpoint.hpp"
#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"
#include "mlmd/topo/topology.hpp"

namespace mlmd::pipeline {
namespace {

using detail::Stage3Snapshot;

Stage3Snapshot capture(const ferro::FerroLattice& lat,
                       const PipelineResult& res, long step, bool degraded) {
  Stage3Snapshot st;
  st.step = step;
  st.n_exc = res.n_exc;
  st.w = res.w;
  st.q_initial = res.q_initial;
  st.q_history = res.q_history;
  st.degraded = degraded;
  st.field = lat.field();
  st.velocity = lat.velocity();
  st.excitation = lat.excitation();
  return st;
}

void apply(const Stage3Snapshot& st, ferro::FerroLattice& lat,
           PipelineResult& res, long& step, bool& degraded) {
  if (st.field.size() != lat.ncells() || st.velocity.size() != lat.ncells() ||
      st.excitation.size() != lat.ncells())
    throw std::invalid_argument("run_pipeline: restored lattice size mismatch");
  lat.field() = st.field;
  lat.velocity() = st.velocity;
  lat.set_excitation(st.excitation);
  res.n_exc = st.n_exc;
  res.w = st.w;
  res.q_initial = st.q_initial;
  res.q_history = st.q_history;
  step = st.step;
  degraded = st.degraded;
}

void write_stage3_checkpoint(const std::string& path, const Stage3Snapshot& st,
                             std::size_t lattice) {
  ft::CheckpointWriter w;
  w.add_pod("pipeline.lattice", static_cast<std::uint64_t>(lattice));
  w.add_pod("pipeline.step", st.step);
  w.add_pod("pipeline.n_exc", st.n_exc);
  w.add_pod("pipeline.w", st.w);
  w.add_pod("pipeline.q_initial", st.q_initial);
  w.add_vec("pipeline.q_history", st.q_history);
  w.add_pod("pipeline.degraded", static_cast<std::uint8_t>(st.degraded));
  w.add_vec("pipeline.field", st.field);
  w.add_vec("pipeline.velocity", st.velocity);
  w.add_vec("pipeline.excitation", st.excitation);
  w.write(path);
}

Stage3Snapshot read_stage3_checkpoint(const std::string& path,
                                      std::size_t lattice) {
  ft::CheckpointReader r(path);
  if (r.pod<std::uint64_t>("pipeline.lattice") != lattice)
    throw std::runtime_error("run_pipeline: lattice extent mismatch in " +
                             path);
  Stage3Snapshot st;
  st.step = r.pod<long>("pipeline.step");
  st.n_exc = r.pod<double>("pipeline.n_exc");
  st.w = r.pod<double>("pipeline.w");
  st.q_initial = r.pod<double>("pipeline.q_initial");
  st.q_history = r.vec<double>("pipeline.q_history");
  st.degraded = r.pod<std::uint8_t>("pipeline.degraded") != 0;
  st.field = r.vec<ferro::Vec3>("pipeline.field");
  st.velocity = r.vec<ferro::Vec3>("pipeline.velocity");
  st.excitation = r.vec<double>("pipeline.excitation");
  return st;
}

/// Zero every non-finite component (the kDegrade reaction on the exact
/// backend, where there is no baseline model to swap to: injected Inf/NaN
/// cells are clamped and the deterministic quench re-relaxes them).
void sanitize(std::vector<ferro::Vec3>& a) {
  for (auto& v : a)
    for (double& c : v)
      if (!std::isfinite(c)) c = 0.0;
}

std::span<const double> flat(const std::vector<ferro::Vec3>& a) {
  return {a.empty() ? nullptr : a[0].data(), 3 * a.size()};
}

} // namespace

Session::Session(PipelineOptions opt, bool dark)
    : opt_(std::move(opt)),
      dark_(dark),
      lat_(opt_.lattice, opt_.lattice, opt_.ferro),
      sentinel_(opt_.guard) {}

void Session::prepare() {
  if (prepared_) return;
  prepared_ = true;

  const bool restoring = !opt_.restore_path.empty();
  if (!restoring) {
    // ---- Stage 1: GS preparation of the skyrmion superlattice ----------
    {
      obs::ObsScope phase("pipeline.gs_prepare", obs::Cat::kPhase);
      topo::init_skyrmion_superlattice(lat_, opt_.superlattice,
                                       opt_.superlattice);
      for (int i = 0; i < opt_.relax_steps; ++i) lat_.step();
      res_.q_initial = topo::topological_charge(lat_);
    }

    // ---- Stage 2: DC-MESH photoexcitation probe ------------------------
    if (!dark_) {
      obs::ObsScope phase("pipeline.mesh_probe", obs::Cat::kPhase);
      grid::Grid3 g{opt_.grid_n, opt_.grid_n, opt_.grid_n, 0.7, 0.7, 0.7};
      std::vector<lfd::Ion> ions = {
          lfd::Ion{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
      mesh::MeshOptions mo = opt_.mesh;
      mesh::DcMeshDomain dom(g, opt_.norb, opt_.nfilled, ions, mo);
      maxwell::Pulse pulse = opt_.pulse;
      // Centre the pulse inside the simulated window.
      pulse.t0 = 0.5 * opt_.mesh_md_steps * dom.md_dt();
      for (int s = 0; s < opt_.mesh_md_steps; ++s) dom.md_step(&pulse);
      res_.n_exc = dom.lfd().n_exc();
    }
    res_.w = nnq::excitation_weight(res_.n_exc, opt_.n_sat);
  }

  // ---- Stage 3 entry: restore or initialize the XS loop -----------------
  if (opt_.backend == ForceBackend::kNeural &&
      (!opt_.gs_model || !opt_.xs_model))
    throw std::invalid_argument("run_pipeline: kNeural needs gs/xs models");

  if (restoring) {
    // Resume mid-trajectory: stages 1-2 are skipped entirely; the
    // checkpoint carries the lattice, the bookkeeping, and the clock.
    auto st = read_stage3_checkpoint(opt_.restore_path, opt_.lattice);
    apply(st, lat_, res_, step_, degraded_);
    res_.start_step = step_;
    res_.degraded = degraded_;
  } else {
    res_.q_history.push_back(res_.q_initial);
    if (opt_.backend != ForceBackend::kNeural)
      // Excitation folds into the well coefficient: A(w) = A0 (1 - 2w).
      lat_.set_uniform_excitation(0.5 * res_.w);
  }

  // One record per record_every steps, plus q_initial: reserved up front so
  // a warm step() never reallocates the history.
  if (opt_.xs_steps > 0 && opt_.record_every > 0)
    res_.q_history.reserve(1 + static_cast<std::size_t>(opt_.xs_steps /
                                                        opt_.record_every));

  if (opt_.guard.enabled && opt_.guard.policy == ft::Policy::kRollback) {
    snapshot_ = capture(lat_, res_, step_, degraded_);
    have_snapshot_ = true;
  }

  if (step_ >= opt_.xs_steps) finalize();
}

bool Session::advance(std::vector<ferro::Vec3>* forces) {
  if (!prepared_) prepare();
  if (finalized_) return false;

  ft::set_step(step_);
  const bool neural = opt_.backend == ForceBackend::kNeural && !degraded_;
  bool tripped = false;

  if (neural) {
    std::vector<ferro::Vec3> f_local;
    if (!forces) {
      f_local = nnq::xs_mixed_forces(*opt_.gs_model, *opt_.xs_model, lat_,
                                     res_.n_exc, opt_.n_sat);
      forces = &f_local;
    }
    // Fault-injection point: nan_force entries corrupt the NN forces.
    if (!forces->empty())
      ft::hook_forces(step_, (*forces)[0].data(), 3 * forces->size());
    if (!sentinel_.check_values("pipeline.xs_forces", flat(*forces)))
      tripped = true;
    else
      lat_.step(*forces);
  } else {
    lat_.step();
  }

  if (!tripped) {
    // Fault-injection point: inf_field entries corrupt the lattice.
    if (!lat_.field().empty())
      ft::hook_fields(step_, lat_.field()[0].data(), 3 * lat_.ncells());
    // Gate on `enabled` here, not only inside check_*: lat.energy() is
    // an O(ncells) sum and must not run on the guard-off path.
    if (sentinel_.options().enabled &&
        (!sentinel_.check_values("pipeline.field", flat(lat_.field())) ||
         !sentinel_.check_energy("pipeline.energy", lat_.energy())))
      tripped = true;
  }

  if (tripped) {
    auto& reg = obs::Registry::global();
    static auto& recovered = reg.counter("ft.faults.recovered");
    switch (opt_.guard.policy) {
      case ft::Policy::kAbort:
        throw ft::GuardTripped("pipeline stage 3 aborted at step " +
                               std::to_string(step_) + ": " +
                               sentinel_.last_what());
      case ft::Policy::kRollback: {
        if (!have_snapshot_ || res_.rollbacks >= opt_.guard.max_rollbacks)
          throw ft::GuardTripped(
              "pipeline stage 3: rollback exhausted at step " +
              std::to_string(step_) + ": " + sentinel_.last_what());
        apply(snapshot_, lat_, res_, step_, degraded_);
        ++res_.rollbacks;
        static auto& rollbacks = reg.counter("ft.rollbacks");
        rollbacks.add(1);
        recovered.add(1);
        // The restored state's energy is the new drift baseline.
        sentinel_.reset_energy_reference();
        return true; // replay from the snapshot step
      }
      case ft::Policy::kDegrade: {
        if (neural) {
          // Swap the surrogate for the exact Hamiltonian for good; the
          // excitation folds into its well coefficient.
          degraded_ = true;
          res_.degraded = true;
          lat_.set_uniform_excitation(0.5 * res_.w);
          static auto& degr = reg.counter("ft.degrade.trips");
          degr.add(1);
        }
        // Clamp whatever non-finite damage reached the lattice; the
        // damped dynamics re-relaxes the zeroed cells.
        sanitize(lat_.field());
        sanitize(lat_.velocity());
        recovered.add(1);
        sentinel_.reset_energy_reference();
        return true; // retry this step on the baseline
      }
    }
  }

  ++step_;
  if (step_ % opt_.record_every == 0)
    res_.q_history.push_back(topo::topological_charge(lat_));
  if (opt_.checkpoint_every > 0 && step_ % opt_.checkpoint_every == 0) {
    snapshot_ = capture(lat_, res_, step_, degraded_);
    have_snapshot_ = true;
    if (!opt_.checkpoint_path.empty()) {
      write_stage3_checkpoint(opt_.checkpoint_path, snapshot_, opt_.lattice);
      ++res_.checkpoints_written;
    }
  }
  if (step_ >= opt_.xs_steps) finalize();
  return !finalized_;
}

bool Session::step() { return advance(nullptr); }

bool Session::step_with(std::vector<ferro::Vec3> f) {
  if (!wants_neural_forces())
    throw std::logic_error(
        "Session::step_with: session does not take neural forces "
        "(unprepared, done, kExact, or degraded)");
  return advance(&f);
}

void Session::write_checkpoint(const std::string& path) {
  if (!prepared_) prepare();
  auto st = capture(lat_, res_, step_, degraded_);
  write_stage3_checkpoint(path, st, opt_.lattice);
  ++res_.checkpoints_written;
}

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;
  res_.q_final = topo::topological_charge(lat_);
  // "Switched" = the texture ended in a different topological state:
  // the charge either collapsed or inverted (the pumped runs typically
  // melt the superlattice and re-form it with opposite polarity).
  res_.switched =
      std::abs(res_.q_final - res_.q_initial) > 0.5 * std::abs(res_.q_initial);
}

PipelineResult run_pipeline(const PipelineOptions& opt, bool dark) {
  obs::ObsScope run_span("pipeline.run", obs::Cat::kStep);
  Session session(opt, dark);
  session.prepare();
  {
    obs::ObsScope phase("pipeline.xs_dynamics", obs::Cat::kPhase);
    while (session.step()) {
    }
  }
  return session.result();
}

} // namespace mlmd::pipeline
