#include "mlmd/mesh/dcmesh.hpp"

#include <cmath>
#include <stdexcept>

#include "mlmd/ft/fault.hpp"
#include "mlmd/lfd/hamiltonian.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::mesh {

DcMeshDomain::DcMeshDomain(const grid::Grid3& g, std::size_t norb,
                           std::size_t nfilled, const std::vector<lfd::Ion>& ions,
                           MeshOptions opt)
    : opt_(opt), lfd_(g, norb, opt.lfd), ions_(ions), ions0_(ions),
      ion_vel_(ions.size(), {0, 0, 0}), ion_force_prev_(ions.size(), {0, 0, 0}),
      sh_(opt.sh) {
  lfd_.initialize(ions_, nfilled);
}

std::array<double, 3> DcMeshDomain::current(double a_value) const {
  double a[3] = {0, 0, 0};
  a[opt_.polarization_axis] = a_value;
  return lfd_.current(a);
}

StepStats DcMeshDomain::md_step(const maxwell::Pulse* pulse) {
  StepStats stats;
  obs::ObsScope step_span("mesh.md_step", obs::Cat::kStep);
  begin_impl(stats);
  finish_impl(stats, pulse, 0.0, false);
  return stats;
}

PendingStep DcMeshDomain::md_step_begin() {
  PendingStep pending;
  pending.open = true;
  begin_impl(pending.stats);
  return pending;
}

StepStats DcMeshDomain::md_step_finish(PendingStep& pending, double a_value) {
  if (!pending.open)
    throw std::logic_error(
        "DcMeshDomain::md_step_finish: no open step (call md_step_begin)");
  pending.open = false;
  finish_impl(pending.stats, nullptr, a_value, true);
  return pending.stats;
}

// A-independent front of one MD step: ion forces + Verlet positions and
// the delta_v_loc shadow exchange. Split out so the multi-domain loop can
// overlap the Maxwell boundary communication (which produces A) with it.
void DcMeshDomain::begin_impl(StepStats& stats) {
  ft::set_step(steps_); // publish the MD step clock to SimComm-level hooks
  const double dt_md = md_dt();
  const grid::Grid3& g = lfd_.grid();

  // --- QXMD side (FP64): Ehrenfest forces on ions from the density -----
  {
    obs::ObsScope phase("mesh.forces", obs::Cat::kPhase);
    auto rho = lfd_.density_field();
    for (std::size_t i = 0; i < ions_.size(); ++i) {
      auto f_el = lfd::ion_force(g, rho, ions_[i]);
      // Harmonic tether to the reference site (stands in for the lattice's
      // short-range ion-ion repulsion keeping the toy crystal bound).
      for (int k = 0; k < 3; ++k) {
        const double* r0 = &ions0_[i].x;
        const double* r = &ions_[i].x;
        f_el[static_cast<std::size_t>(k)] -=
            opt_.ion_spring * (r[k] - r0[k]);
      }
      ion_force_prev_[i] = f_el;
    }
    // Fault-injection point: a nan_force entry lands here, in the ion
    // forces, before the Verlet kick consumes them.
    if (!ion_force_prev_.empty())
      ft::hook_forces(steps_, &ion_force_prev_[0][0],
                      3 * ion_force_prev_.size());

    // Velocity Verlet (single MD step) and max displacement tracking.
    for (std::size_t i = 0; i < ions_.size(); ++i) {
      double* r = &ions_[i].x;
      double disp2 = 0.0;
      for (int k = 0; k < 3; ++k) {
        ion_vel_[i][static_cast<std::size_t>(k)] +=
            0.5 * dt_md * ion_force_prev_[i][static_cast<std::size_t>(k)] / opt_.ion_mass;
        const double dr = dt_md * ion_vel_[i][static_cast<std::size_t>(k)];
        r[k] += dr;
        disp2 += dr * dr;
      }
      stats.ion_max_disp = std::max(stats.ion_max_disp, std::sqrt(disp2));
    }
  }

  // --- shadow dynamics exchange QXMD -> LFD: delta_v_loc ---------------
  // LfdDomain holds the cumulative ionic potential; only the increment
  // against the last transmitted potential crosses the boundary.
  {
    obs::ObsScope phase("mesh.exchange.dv", obs::Cat::kPhase);
    auto v_new = lfd::ionic_potential(g, ions_);
    if (v_last_.empty()) v_last_ = lfd::ionic_potential(g, ions0_);
    std::vector<double> dv(v_new.size());
    for (std::size_t i = 0; i < dv.size(); ++i) dv[i] = v_new[i] - v_last_[i];
    v_last_ = v_new;
    // Fault-injection point: an inf_field entry corrupts the shadow
    // potential increment crossing the QXMD -> LFD boundary.
    ft::hook_fields(steps_, dv.data(), dv.size());
    lfd_.apply_delta_vloc(dv);
    stats.bytes_qxmd_to_lfd = dv.size() * sizeof(double);
  }
}

// Back half: everything that consumes the vector potential.
void DcMeshDomain::finish_impl(StepStats& stats, const maxwell::Pulse* pulse,
                               double fixed_a, bool use_fixed_a) {
  const double dt_md = md_dt();
  const grid::Grid3& g = lfd_.grid();

  // --- LFD side (FP32 shadow proxy): N_QD steps of Eq. (2) -------------
  double a[3] = {0, 0, 0};
  {
    obs::ObsScope phase("mesh.qd_loop", obs::Cat::kPhase);
    for (int n = 0; n < opt_.nqd_per_md; ++n) {
      const double tq = t_ + (n + 0.5) * opt_.lfd.dt_qd;
      a[opt_.polarization_axis] =
          use_fixed_a ? fixed_a : (pulse ? pulse->apot(tq) : 0.0);
      lfd_.qd_step(a);
    }
  }

  // Second Verlet half-kick with fresh forces.
  {
    obs::ObsScope phase("mesh.forces", obs::Cat::kPhase);
    auto rho = lfd_.density_field();
    for (std::size_t i = 0; i < ions_.size(); ++i) {
      auto f_el = lfd::ion_force(g, rho, ions_[i]);
      for (int k = 0; k < 3; ++k) {
        const double* r0 = &ions0_[i].x;
        const double* r = &ions_[i].x;
        f_el[static_cast<std::size_t>(k)] -= opt_.ion_spring * (r[k] - r0[k]);
        ion_vel_[i][static_cast<std::size_t>(k)] +=
            0.5 * dt_md * f_el[static_cast<std::size_t>(k)] / opt_.ion_mass;
      }
    }
  }

  // --- surface hopping at the MD boundary (U_SH) -----------------------
  {
    obs::ObsScope phase("mesh.sh", obs::Cat::kPhase);
    auto h_orb = lfd::orbital_hamiltonian(lfd_.wave(), lfd_.vloc(), a);
    sh_.step(h_orb, lfd_.occupations(), dt_md);
  }

  // --- shadow dynamics exchange LFD -> QXMD: delta_f -------------------
  auto df = lfd_.take_delta_occupations();
  for (double d : df) stats.delta_f_norm += d * d;
  stats.delta_f_norm = std::sqrt(stats.delta_f_norm);
  stats.bytes_lfd_to_qxmd = df.size() * sizeof(double);

  // Shadow-boundary traffic, aggregated across all steps/domains of the
  // process (per-step values stay in StepStats).
  {
    auto& reg = obs::Registry::global();
    static auto& steps = reg.counter("mesh.md_steps");
    static auto& b_down = reg.counter("mesh.bytes_qxmd_to_lfd");
    static auto& b_up = reg.counter("mesh.bytes_lfd_to_qxmd");
    steps.add(1);
    b_down.add(stats.bytes_qxmd_to_lfd);
    b_up.add(stats.bytes_lfd_to_qxmd);
  }
  stats.wavefunction_bytes =
      lfd_.wave().psi.size() * sizeof(std::complex<float>);
  stats.n_exc = lfd_.n_exc();
  stats.electron_energy = lfd_.energy(a);

  t_ += dt_md;
  ++steps_;
}

void DcMeshDomain::save_checkpoint(ft::CheckpointWriter& w) const {
  w.add_pod("mesh.t", t_);
  w.add_pod("mesh.steps", steps_);
  w.add_vec("mesh.ions", ions_);
  w.add_vec("mesh.ions0", ions0_);
  w.add_vec("mesh.ion_vel", ion_vel_);
  w.add_vec("mesh.ion_force_prev", ion_force_prev_);
  w.add_vec("mesh.v_last", v_last_);

  const auto lfd_state = lfd_.state();
  w.add_vec("mesh.lfd.psi", lfd_state.psi);
  w.add_vec("mesh.lfd.psi0", lfd_state.psi0);
  w.add_pod("mesh.lfd.psi0_rows", lfd_state.psi0_rows);
  w.add_pod("mesh.lfd.psi0_cols", lfd_state.psi0_cols);
  w.add_vec("mesh.lfd.f", lfd_state.f);
  w.add_vec("mesh.lfd.f0", lfd_state.f0);
  w.add_vec("mesh.lfd.f_reported", lfd_state.f_reported);
  w.add_vec("mesh.lfd.vloc", lfd_state.vloc);
  w.add_vec("mesh.lfd.vion", lfd_state.vion);
  w.add_vec("mesh.lfd.hartree_phi", lfd_state.hartree_phi);
  w.add_vec("mesh.lfd.hartree_phi_dot", lfd_state.hartree_phi_dot);
  w.add_pod("mesh.lfd.steps", lfd_state.steps);

  const auto sh = sh_.state();
  w.add_pod("mesh.sh.have_prev", static_cast<std::uint8_t>(sh.have_prev));
  w.add_pod("mesh.sh.dim", sh.dim);
  w.add_vec("mesh.sh.prev_values", sh.prev_values);
  w.add_vec("mesh.sh.prev_vectors", sh.prev_vectors);
  w.add_pod("mesh.sh.prev_sweeps", sh.prev_sweeps);
  w.add_pod("mesh.sh.rng_state", sh.rng_state);
}

void DcMeshDomain::restore_checkpoint(const ft::CheckpointReader& r) {
  // Stage everything into locals first; only commit once every section
  // parsed and shape-checked, so a bad checkpoint leaves the domain
  // untouched.
  const auto t = r.pod<double>("mesh.t");
  const auto steps = r.pod<long>("mesh.steps");
  auto ions = r.vec<lfd::Ion>("mesh.ions");
  auto ions0 = r.vec<lfd::Ion>("mesh.ions0");
  auto ion_vel = r.vec<std::array<double, 3>>("mesh.ion_vel");
  auto ion_force_prev = r.vec<std::array<double, 3>>("mesh.ion_force_prev");
  auto v_last = r.vec<double>("mesh.v_last");
  if (ions.size() != ions_.size() || ions0.size() != ions_.size() ||
      ion_vel.size() != ions_.size() || ion_force_prev.size() != ions_.size())
    throw std::invalid_argument(
        "DcMeshDomain::restore_checkpoint: ion count mismatch");

  lfd::LfdDomain<float>::State ls;
  ls.psi = r.vec<std::complex<float>>("mesh.lfd.psi");
  ls.psi0 = r.vec<std::complex<float>>("mesh.lfd.psi0");
  ls.psi0_rows = r.pod<std::size_t>("mesh.lfd.psi0_rows");
  ls.psi0_cols = r.pod<std::size_t>("mesh.lfd.psi0_cols");
  ls.f = r.vec<double>("mesh.lfd.f");
  ls.f0 = r.vec<double>("mesh.lfd.f0");
  ls.f_reported = r.vec<double>("mesh.lfd.f_reported");
  ls.vloc = r.vec<double>("mesh.lfd.vloc");
  ls.vion = r.vec<double>("mesh.lfd.vion");
  ls.hartree_phi = r.vec<double>("mesh.lfd.hartree_phi");
  ls.hartree_phi_dot = r.vec<double>("mesh.lfd.hartree_phi_dot");
  ls.steps = r.pod<int>("mesh.lfd.steps");

  qxmd::SurfaceHopping::State ss;
  ss.have_prev = r.pod<std::uint8_t>("mesh.sh.have_prev") != 0;
  ss.dim = r.pod<std::size_t>("mesh.sh.dim");
  ss.prev_values = r.vec<double>("mesh.sh.prev_values");
  ss.prev_vectors = r.vec<std::complex<double>>("mesh.sh.prev_vectors");
  ss.prev_sweeps = r.pod<int>("mesh.sh.prev_sweeps");
  ss.rng_state = r.pod<std::array<std::uint64_t, 4>>("mesh.sh.rng_state");
  // Pre-validate the SH shapes so the commit below is all-or-nothing
  // (sh_.set_state would otherwise throw after lfd_ was already mutated).
  if (ss.prev_vectors.size() != ss.dim * ss.dim ||
      (ss.have_prev && ss.prev_values.size() != ss.dim))
    throw std::invalid_argument(
        "DcMeshDomain::restore_checkpoint: surface-hopping size mismatch");

  lfd_.set_state(ls); // throws on grid/orbital mismatch before we commit
  sh_.set_state(ss);
  t_ = t;
  steps_ = steps;
  ions_ = std::move(ions);
  ions0_ = std::move(ions0);
  ion_vel_ = std::move(ion_vel);
  ion_force_prev_ = std::move(ion_force_prev);
  v_last_ = std::move(v_last);
}

} // namespace mlmd::mesh
