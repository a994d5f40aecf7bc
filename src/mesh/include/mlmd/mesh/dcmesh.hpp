#pragma once
// DC-MESH: divide-and-conquer Maxwell-Ehrenfest-surface-hopping for one
// DC domain (paper Fig. 2b). Couples three clocks:
//
//   QD steps (~1 as): LFD propagates KS wavefunctions (FP32 shadow proxy,
//     Sec. V.B.7) under the laser vector potential — Ehrenfest regime.
//   MD steps (~1 fs = N_QD QD steps): ions move under Ehrenfest
//     (Hellmann-Feynman) forces computed from the FP64 density; the
//     resulting local-potential increment delta_v_loc is the *only*
//     QXMD -> LFD transfer, and the occupation change delta_f the only
//     LFD -> QXMD transfer (shadow dynamics, Sec. V.A.3). Surface hopping
//     updates occupations at every MD boundary (U_SH in Eq. 2).
//
// StepStats meters the shadow-dynamics traffic so tests can assert the
// paper's claim that it is negligible next to the wavefunction footprint.

#include <array>
#include <memory>
#include <vector>

#include "mlmd/lfd/domain.hpp"
#include "mlmd/maxwell/pulse.hpp"
#include "mlmd/qxmd/surface_hopping.hpp"

namespace mlmd::mesh {

/// Laser polarization axis (y): the vector-potential component the pulse
/// drives and the current component the Maxwell coupling reads.
inline constexpr std::size_t kPolarizationAxis = 1;

struct MeshOptions {
  lfd::LfdOptions lfd;          ///< QD propagation parameters
  int nqd_per_md = 50;          ///< N_QD (paper uses ~1000)
  qxmd::ShOptions sh;           ///< surface hopping
};

struct StepStats {
  double n_exc = 0.0;            ///< photoexcited electrons after this step
  double delta_f_norm = 0.0;     ///< |delta_f| reported by LFD
  std::size_t bytes_qxmd_to_lfd = 0; ///< delta_v_loc payload
  std::size_t bytes_lfd_to_qxmd = 0; ///< delta_f payload
  std::size_t wavefunction_bytes = 0; ///< footprint that never moves
  double ion_max_disp = 0.0;     ///< largest ion displacement this step
  double electron_energy = 0.0;
};

/// In-flight MD step between md_step_begin and md_step_finish
/// (communication/computation overlap in the multi-domain loop).
struct PendingStep {
  StepStats stats;
  bool open = false;
};

class DcMeshDomain {
public:
  DcMeshDomain(const grid::Grid3& g, std::size_t norb, std::size_t nfilled,
               const std::vector<lfd::Ion>& ions, MeshOptions opt = {});

  /// One MD step (= nqd_per_md QD steps) under the given laser pulse
  /// (pass nullptr for dark dynamics).
  StepStats md_step(const maxwell::Pulse* pulse);

  // --- split-phase MD step with an external vector potential ----------
  // Used by the multiscale Maxwell coupling, which owns A(X, t). begin
  // runs the A-independent front of the step (ion forces + Verlet
  // positions, delta_v_loc exchange) so the caller can overlap boundary
  // communication that produces A; finish consumes the constant vector
  // potential (QD loop, second half-kick, surface hopping, delta_f).
  // Exactly one finish per begin.

  /// A-independent front half of one MD step.
  PendingStep md_step_begin();
  /// Back half; requires an open PendingStep from md_step_begin.
  StepStats md_step_finish(PendingStep& pending, double a_value);

  double time() const { return t_; }
  double md_dt() const { return opt_.nqd_per_md * opt_.lfd.dt_qd; }

  lfd::LfdDomain<float>& lfd() { return lfd_; }
  const lfd::LfdDomain<float>& lfd() const { return lfd_; }
  const std::vector<lfd::Ion>& ions() const { return ions_; }
  qxmd::SurfaceHopping& surface_hopping() { return sh_; }

  /// Macroscopic current (Maxwell source) at the current state.
  std::array<double, 3> current(double a_value) const;

  /// MD steps taken since construction (the fault-injection step clock).
  long steps_taken() const { return steps_; }

private:
  void begin_impl(StepStats& stats);
  void finish_impl(StepStats& stats, const maxwell::Pulse* pulse,
                   double fixed_a, bool use_fixed_a);

  MeshOptions opt_;
  lfd::LfdDomain<float> lfd_;
  std::vector<double> v_last_; ///< last ionic potential sent to LFD
  std::vector<lfd::Ion> ions_, ions0_;
  std::vector<std::array<double, 3>> ion_vel_, ion_force_prev_;
  qxmd::SurfaceHopping sh_;
  double t_ = 0.0;
  long steps_ = 0;
};

} // namespace mlmd::mesh
