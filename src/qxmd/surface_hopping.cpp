#include "mlmd/qxmd/surface_hopping.hpp"

#include <algorithm>
#include <cmath>

#include "mlmd/la/gemm.hpp"

namespace mlmd::qxmd {

void SurfaceHopping::step(const la::Matrix<std::complex<double>>& h_orbital,
                          std::vector<double>& f, double dt_md) {
  using cd = std::complex<double>;
  const std::size_t n = f.size();
  auto now = la::eigh(h_orbital);
  energies_ = now.values;

  if (!have_prev_) {
    prev_ = std::move(now);
    have_prev_ = true;
    return;
  }

  // Overlap of previous and current adiabatic bases: D = V_prev^H V_now.
  la::Matrix<cd> d(n, n);
  la::gemm(la::Trans::kC, la::Trans::kN, cd(1.0, 0.0), prev_.vectors, now.vectors,
           cd{}, d);

  // Fewest-switches-style rates between adiabatic states. |D_ab|^2 for
  // a != b measures how much state a rotated into state b during dt_md.
  rates_.resize(n, n, 0.0);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      double w = std::norm(d(a, b)) / dt_md;
      const double de = now.values[b] - prev_.values[a];
      if (de > 0) w *= std::exp(-de / std::max(opt_.kt, 1e-12)); // detailed balance
      rates_(a, b) = w;
    }

  // Map orbital occupations onto adiabatic populations:
  // p_b = sum_s f_s |<phi_b|psi_s>|^2. In the KS-orbital representation
  // psi_s is the unit vector e_s, so p_b = sum_s f_s |V_now(s,b)|^2.
  std::vector<double> p(n, 0.0);
  for (std::size_t b = 0; b < n; ++b)
    for (std::size_t s = 0; s < n; ++s)
      p[b] += f[s] * std::norm(now.vectors(s, b));

  std::vector<double> p_new = p;
  if (!opt_.stochastic) {
    // Master equation, explicit Euler with flux limiting so populations
    // stay within [0, kFMax] and total is conserved exactly.
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        double flux = rates_(a, b) * p[a] * dt_md;
        flux = std::min(flux, p[a] / static_cast<double>(n)); // limiter
        flux = std::min(flux, std::max(kFMax - p[b], 0.0));
        p_new[a] -= flux;
        p_new[b] += flux;
      }
  } else {
    // Stochastic single-trajectory hops: each state attempts one hop.
    for (std::size_t a = 0; a < n; ++a) {
      double hop_total = 0.0;
      for (std::size_t b = 0; b < n; ++b) hop_total += rates_(a, b) * dt_md;
      if (hop_total <= 0 || p[a] <= 0) continue;
      if (rng_.uniform() < std::min(hop_total, 1.0)) {
        // Choose destination proportional to rate.
        double r = rng_.uniform() * hop_total;
        std::size_t dest = a;
        for (std::size_t b = 0; b < n; ++b) {
          if (a == b) continue;
          r -= rates_(a, b) * dt_md;
          if (r <= 0) {
            dest = b;
            break;
          }
        }
        if (dest != a) {
          const double amount =
              std::min({p[a], kFMax - p_new[dest], p_new[a]});
          if (amount > 0) {
            p_new[a] -= amount;
            p_new[dest] += amount;
          }
        }
      }
    }
  }

  // Map the population *change* back to orbital occupations:
  // f_s += sum_b (p_new_b - p_b) |V_now(s,b)|^2. Propagating only the
  // delta keeps f exactly fixed when no transitions occur (the f -> p ->
  // f round trip alone would smear occupations whenever the adiabatic
  // basis differs from the orbital basis). Total occupation is conserved
  // because each |V| column has unit norm.
  for (std::size_t s = 0; s < n; ++s) {
    double df = 0.0;
    for (std::size_t b = 0; b < n; ++b)
      df += (p_new[b] - p[b]) * std::norm(now.vectors(s, b));
    f[s] += df;
  }
  // Clamp tiny violations while conserving the total exactly: collect the
  // clamped excess and spread it over states with headroom.
  double excess = 0.0;
  for (double& fs : f) {
    if (fs < 0.0) {
      excess += fs;
      fs = 0.0;
    } else if (fs > kFMax) {
      excess += fs - kFMax;
      fs = kFMax;
    }
  }
  if (excess != 0.0) {
    for (double& fs : f) {
      const double room = excess > 0 ? kFMax - fs : fs;
      const double take = std::clamp(excess, -room, room);
      fs += take;
      excess -= take;
      if (excess == 0.0) break;
    }
  }

  prev_ = std::move(now);
}

} // namespace mlmd::qxmd
