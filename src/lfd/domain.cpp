#include "mlmd/lfd/domain.hpp"

#include <algorithm>
#include <stdexcept>

#include "mlmd/la/eig.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"
#include "mlmd/la/ortho.hpp"
#include "mlmd/lfd/fermi.hpp"
#include "mlmd/lfd/hamiltonian.hpp"

namespace mlmd::lfd {

template <class Real>
LfdDomain<Real>::LfdDomain(const grid::Grid3& g, std::size_t norb, LfdOptions opt)
    : opt_(opt), wave_(g, norb), f_(norb, 0.0), f0_(norb, 0.0),
      f_reported_(norb, 0.0), vloc_(g.size(), 0.0), vion_(g.size(), 0.0),
      hartree_(g) {}

template <class Real>
void LfdDomain<Real>::initialize(const std::vector<Ion>& ions, std::size_t nfilled) {
  if (nfilled > wave_.norb)
    throw std::invalid_argument("LfdDomain: nfilled exceeds norb");
  ions_ = ions;

  init_plane_waves(wave_);
  // Orthonormalize in double precision for a clean start, then cast back.
  auto wd = convert<double>(wave_);
  la::mgs_orthonormalize(wd.psi, wd.grid.dv());
  wave_ = convert<Real>(wd);

  f_.assign(wave_.norb, 0.0);
  for (std::size_t s = 0; s < nfilled; ++s) f_[s] = 2.0; // spin-degenerate
  f0_ = f_;
  f_reported_ = f_;

  vion_ = ionic_potential(wave_.grid, ions_);
  refresh_potential();
  hartree_.solve(density(wave_, f_));
  refresh_potential();

  // Relax toward instantaneous eigenstates (imaginary-time steepest
  // descent in double precision) so that dark propagation stays inside
  // the initially occupied subspace and n_exc measures *light-driven*
  // promotion, not initialization error.
  if (opt_.init_relax_steps > 0) {
    auto wd = convert<double>(wave_);
    const double zero_a[3] = {0, 0, 0};
    for (int it = 0; it < opt_.init_relax_steps; ++it) {
      auto hpsi = apply_hloc(wd, vloc_, zero_a);
      for (std::size_t i = 0; i < wd.psi.size(); ++i)
        wd.psi.data()[i] -= opt_.init_relax_tau * hpsi.data()[i];
      la::mgs_orthonormalize(wd.psi, wd.grid.dv());
    }
    wave_ = convert<Real>(wd);
    if (opt_.self_consistent) {
      hartree_.solve(density(wave_, f_));
      refresh_potential();
    }
  }

  // Finite electronic temperature: occupy by band energy with Fermi-Dirac
  // smearing instead of the aufbau fill above.
  if (opt_.electronic_kt >= 0.0) {
    const double zero_a[3] = {0, 0, 0};
    auto h_orb = orbital_hamiltonian(wave_, vloc_, zero_a);
    std::vector<double> bands(wave_.norb);
    for (std::size_t s = 0; s < wave_.norb; ++s) bands[s] = h_orb(s, s).real();
    f_ = fermi_occupations(bands, 2.0 * static_cast<double>(nfilled),
                           opt_.electronic_kt)
             .f;
    f0_ = f_;
    f_reported_ = f_;
    if (opt_.self_consistent) {
      hartree_.solve(density(wave_, f_));
      refresh_potential();
    }
  }

  psi0_ = wave_.psi; // scissor reference (Eq. 5)
  steps_ = 0;
}

template <class Real>
void LfdDomain<Real>::refresh_potential() {
  vloc_ = vion_;
  if (opt_.self_consistent) {
    const auto& vh = hartree_.potential();
    for (std::size_t i = 0; i < vloc_.size(); ++i) vloc_[i] += vh[i];
    auto rho = density(wave_, f_);
    add_xc_potential(rho, vloc_);
  }
}

template <class Real>
void LfdDomain<Real>::qd_step(const double a[3]) {
  const double dt = opt_.dt_qd;
  KinParams kp;
  kp.dt = dt;
  kp.a[0] = a[0];
  kp.a[1] = a[1];
  kp.a[2] = a[2];

  // Per-kernel accounting goes to the always-on obs registry (histograms
  // under "lfd.<kernel>.seconds") plus, when tracing, a kernel span:
  // thread-safe, and one namespace for every per-kernel breakdown (see
  // DESIGN.md Sec. 9).
  auto& reg = obs::Registry::global();
  if (opt_.prop_order == PropOrder::kFourth) {
    // Composite Suzuki-Yoshida step (exactly time-reversible, 3x the
    // sweeps — the high-accuracy configuration).
    static auto& h = reg.histogram("lfd.split_step4.seconds");
    obs::ObsScope span("lfd.split_step4", obs::Cat::kKernel, &h);
    split_step(wave_, vloc_, kp, PropOrder::kFourth, opt_.kin_variant);
  } else {
    static auto& hv = reg.histogram("lfd.vloc_prop.seconds");
    static auto& hk = reg.histogram("lfd.kin_prop.seconds");
    {
      obs::ObsScope span("lfd.vloc_prop", obs::Cat::kKernel, &hv);
      vloc_prop(wave_, vloc_, 0.5 * dt);
    }
    {
      obs::ObsScope span("lfd.kin_prop", obs::Cat::kKernel, &hk);
      kin_prop(wave_, kp, opt_.kin_variant);
    }
    {
      obs::ObsScope span("lfd.vloc_prop", obs::Cat::kKernel, &hv);
      vloc_prop(wave_, vloc_, 0.5 * dt);
    }
  }

  ++steps_;
  if (opt_.nlp_every > 0 && steps_ % opt_.nlp_every == 0) {
    static auto& h = reg.histogram("lfd.nlp_prop.seconds");
    obs::ObsScope span("lfd.nlp_prop", obs::Cat::kKernel, &h);
    nlp_prop(wave_, psi0_, opt_.scissor_delta * (dt * opt_.nlp_every),
             opt_.gemm_mode);
  }
  if (opt_.self_consistent && opt_.hartree_every > 0 &&
      steps_ % opt_.hartree_every == 0) {
    static auto& h = reg.histogram("lfd.hartree.seconds");
    obs::ObsScope span("lfd.hartree", obs::Cat::kKernel, &h);
    hartree_.update(density(wave_, f_));
    refresh_potential();
  }
}

template <class Real>
void LfdDomain<Real>::run_qd(int nsteps, const double a[3]) {
  for (int i = 0; i < nsteps; ++i) qd_step(a);
}

template <class Real>
void LfdDomain<Real>::apply_delta_vloc(const std::vector<double>& dv) {
  if (dv.size() != vion_.size())
    throw std::invalid_argument("apply_delta_vloc: size mismatch");
  for (std::size_t i = 0; i < vion_.size(); ++i) vion_[i] += dv[i];
  refresh_potential();
}

template <class Real>
std::vector<double> LfdDomain<Real>::take_delta_occupations() {
  std::vector<double> delta(f_.size());
  for (std::size_t s = 0; s < f_.size(); ++s) delta[s] = f_[s] - f_reported_[s];
  f_reported_ = f_;
  return delta;
}

template <class Real>
std::vector<double> LfdDomain<Real>::diagonalize_subspace(const double a[3]) {
  auto h_orb = orbital_hamiltonian(wave_, vloc_, a);
  auto es = la::eigh(h_orb);

  // Psi <- Psi V (columns become the adiabatic orbitals, energy-sorted).
  la::Matrix<std::complex<Real>> v(wave_.norb, wave_.norb);
  for (std::size_t i = 0; i < v.size(); ++i)
    v.data()[i] = std::complex<Real>(
        static_cast<Real>(es.vectors.data()[i].real()),
        static_cast<Real>(es.vectors.data()[i].imag()));
  la::Matrix<std::complex<Real>> rotated(wave_.psi.rows(), wave_.psi.cols());
  la::gemm(la::Trans::kN, la::Trans::kN, std::complex<Real>(Real(1), Real(0)),
           wave_.psi, v, std::complex<Real>{}, rotated);
  wave_.psi = std::move(rotated);

  // Occupations follow the basis change: f'_b = sum_s f_s |V(s,b)|^2.
  std::vector<double> f_new(wave_.norb, 0.0);
  for (std::size_t b = 0; b < wave_.norb; ++b)
    for (std::size_t s = 0; s < wave_.norb; ++s)
      f_new[b] += f_[s] * std::norm(es.vectors(s, b));
  f_ = f_new;
  return es.values;
}

template <class Real>
double LfdDomain<Real>::energy(const double a[3]) const {
  return total_energy(wave_, f_, vloc_, a);
}

template <class Real>
double LfdDomain<Real>::n_exc() const {
  // Photoexcited electrons = occupation-weighted leakage of the
  // propagated orbitals out of the *initially occupied* subspace
  // (Ehrenfest channel, driven by the laser), plus occupation lost from
  // initially occupied orbitals through surface hopping (SH channel).
  using C = std::complex<Real>;
  const std::size_t no = wave_.norb;
  la::Matrix<C> s(no, no);
  la::gemm(la::Trans::kC, la::Trans::kN,
           C(static_cast<Real>(wave_.grid.dv()), Real(0)), psi0_, wave_.psi, C{},
           s);
  double leakage = 0.0;
  for (std::size_t col = 0; col < no; ++col) {
    double q = 0.0; // weight of orbital `col` inside the occupied subspace
    for (std::size_t row = 0; row < no; ++row)
      if (f0_[row] > 0.0) q += std::norm(std::complex<double>(s(row, col)));
    leakage += f_[col] * std::max(0.0, 1.0 - std::min(q, 1.0));
  }
  return leakage + excitation_number(f0_, f_);
}

template class LfdDomain<float>;
template class LfdDomain<double>;

} // namespace mlmd::lfd
