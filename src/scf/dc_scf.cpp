#include "mlmd/scf/dc_scf.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mlmd/la/ortho.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/fermi.hpp"
#include "mlmd/lfd/hamiltonian.hpp"

namespace mlmd::scf {
namespace {

constexpr double kRelaxTau = 0.02; ///< imaginary-time step of relax_domain

} // namespace

DcScf::DcScf(const grid::DcDecomposition& decomp, const std::vector<lfd::Ion>& ions,
             ScfOptions opt)
    : decomp_(decomp), ions_(ions), opt_(opt),
      mg_(decomp.global().nx, decomp.global().ny, decomp.global().nz,
          decomp.global().hx, decomp.global().hy, decomp.global().hz) {
  const auto& g = decomp_.global();
  rho_global_.assign(g.size(), 0.0);
  v_global_.assign(g.size(), 0.0);
  v_hartree_.assign(g.size(), 0.0);
  v_ion_global_ = lfd::ionic_potential(g, ions_);

  waves_.reserve(static_cast<std::size_t>(decomp_.ndomains()));
  band_energies_.assign(static_cast<std::size_t>(decomp_.ndomains()), {});
  for (int a = 0; a < decomp_.ndomains(); ++a) {
    lfd::SoAWave<double> w(decomp_.domain(a).local, opt_.norb);
    lfd::init_plane_waves(w);
    la::mgs_orthonormalize(w.psi, w.grid.dv());
    waves_.push_back(std::move(w));
  }
}

void DcScf::build_global_potential() {
  // Hartree from the (mean-free) global density, then ion + xc.
  std::vector<double> f(rho_global_.size());
  const double fourpi = 4.0 * std::numbers::pi;
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = fourpi * rho_global_[i];
  mg_.solve(f, v_hartree_);
  v_global_ = v_ion_global_;
  for (std::size_t i = 0; i < v_global_.size(); ++i) v_global_[i] += v_hartree_[i];
  if (opt_.use_xc) lfd::add_xc_potential(rho_global_, v_global_);
}

double DcScf::relax_domain(int a) {
  auto& w = waves_[static_cast<std::size_t>(a)];
  auto v_local = decomp_.gather(a, v_global_);
  const double zero_a[3] = {0, 0, 0};

  for (int it = 0; it < opt_.local_iters; ++it) {
    auto hpsi = lfd::apply_hloc(w, v_local, zero_a);
    // Imaginary-time steepest descent: psi <- psi - tau (H - <H>) psi.
    for (std::size_t s = 0; s < w.norb; ++s) {
      // Rayleigh quotient per orbital.
      std::complex<double> num{};
      double den = 0.0;
      for (std::size_t g = 0; g < w.grid.size(); ++g) {
        num += std::conj(w.at(g, s)) * hpsi(g, s);
        den += std::norm(w.at(g, s));
      }
      const double eps = num.real() / den;
      for (std::size_t g = 0; g < w.grid.size(); ++g)
        w.at(g, s) -= kRelaxTau * (hpsi(g, s) - eps * w.at(g, s));
    }
    la::mgs_orthonormalize(w.psi, w.grid.dv());
  }

  // Band energies after relaxation.
  auto hpsi = lfd::apply_hloc(w, v_local, zero_a);
  auto& bands = band_energies_[static_cast<std::size_t>(a)];
  bands.assign(w.norb, 0.0);
  double e_sum = 0.0;
  for (std::size_t s = 0; s < w.norb; ++s) {
    std::complex<double> num{};
    for (std::size_t g = 0; g < w.grid.size(); ++g)
      num += std::conj(w.at(g, s)) * hpsi(g, s);
    bands[s] = num.real() * w.grid.dv();
    if (s < opt_.nfilled) e_sum += 2.0 * bands[s];
  }
  return e_sum;
}

ScfResult DcScf::run() {
  ScfResult res;
  const auto& g = decomp_.global();
  std::vector<double> occ(opt_.norb, 0.0);
  for (std::size_t s = 0; s < opt_.nfilled; ++s) occ[s] = 2.0;

  // Anderson (depth 1) history: previous input density and residual.
  std::vector<double> rho_in_prev, f_prev;

  for (int outer = 0; outer < opt_.max_outer; ++outer) {
    build_global_potential();

    double e_total = 0.0;
    std::vector<double> rho_new(g.size(), 0.0);
    for (int a = 0; a < decomp_.ndomains(); ++a) {
      e_total += relax_domain(a);
      // Occupations: aufbau by default; Fermi-Dirac smearing of this
      // domain's band energies when an electronic temperature is set.
      std::vector<double> occ_a = occ;
      if (opt_.electronic_kt >= 0.0) {
        const auto& bands = band_energies_[static_cast<std::size_t>(a)];
        occ_a = lfd::fermi_occupations(bands,
                                       2.0 * static_cast<double>(opt_.nfilled),
                                       opt_.electronic_kt)
                    .f;
        e_total -= 2.0 * [&] { // replace aufbau band sum with smeared one
          double e = 0.0;
          for (std::size_t s = 0; s < opt_.nfilled; ++s) e += bands[s];
          return e;
        }();
        for (std::size_t s = 0; s < bands.size(); ++s)
          e_total += occ_a[s] * bands[s];
        e_total += lfd::fermi_entropy_term(occ_a, opt_.electronic_kt);
      }
      auto rho_local = lfd::density(waves_[static_cast<std::size_t>(a)], occ_a);
      decomp_.scatter_core(a, rho_local, rho_new);
    }

    // Residual F = rho_out - rho_in of the SCF fixed-point map.
    std::vector<double> f_now(g.size());
    double dn = 0.0, nn = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      f_now[i] = rho_new[i] - rho_global_[i];
      dn += f_now[i] * f_now[i];
      nn += rho_new[i] * rho_new[i];
    }
    res.density_residual = std::sqrt(dn / (nn + 1e-300));
    res.total_energy = e_total;
    res.outer_iters = outer + 1;
    if (res.density_residual < opt_.tol) {
      res.converged = true;
      break;
    }

    if (opt_.anderson && !f_prev.empty()) {
      // Secant extrapolation: theta minimizes |(1-t) F_now + t F_prev|.
      double num = 0.0, den = 0.0;
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double df = f_now[i] - f_prev[i];
        num += df * f_now[i];
        den += df * df;
      }
      double theta = den > 1e-300 ? num / den : 0.0;
      theta = std::clamp(theta, -1.0, 1.0); // keep the update conservative
      std::vector<double> rho_next(g.size());
      for (std::size_t i = 0; i < g.size(); ++i) {
        const double in_bar =
            (1.0 - theta) * rho_global_[i] + theta * rho_in_prev[i];
        const double f_bar = (1.0 - theta) * f_now[i] + theta * f_prev[i];
        rho_next[i] = in_bar + opt_.mix * f_bar;
      }
      rho_in_prev = rho_global_;
      f_prev = f_now;
      rho_global_ = std::move(rho_next);
    } else {
      rho_in_prev = rho_global_;
      f_prev = f_now;
      for (std::size_t i = 0; i < g.size(); ++i)
        rho_global_[i] += opt_.mix * f_now[i];
    }
  }

  res.band_energies.clear();
  for (const auto& bands : band_energies_)
    res.band_energies.insert(res.band_energies.end(), bands.begin(), bands.end());
  return res;
}

} // namespace mlmd::scf
