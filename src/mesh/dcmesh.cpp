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

} // namespace mlmd::mesh
