#include "mlmd/nnq/angular.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::nnq {

AngularBasis AngularBasis::make(std::size_t nzeta, double rc, double eta) {
  AngularBasis b;
  b.rc = rc;
  b.eta = eta;
  double zeta = 1.0;
  for (std::size_t i = 0; i < nzeta; ++i, zeta *= 2.0) {
    b.channels.emplace_back(zeta, +1.0);
    b.channels.emplace_back(zeta, -1.0);
  }
  return b;
}

double AngularBasis::fc(double r) const {
  if (r >= rc) return 0.0;
  return 0.5 * (std::cos(std::numbers::pi * r / rc) + 1.0);
}

double AngularBasis::dfc(double r) const {
  if (r >= rc) return 0.0;
  return -0.5 * std::numbers::pi / rc * std::sin(std::numbers::pi * r / rc);
}

namespace {

/// Shared per-triplet geometry for value and gradient evaluation.
struct Triplet {
  double dj[3], dk[3]; ///< r_i - r_j, r_i - r_k
  double r1 = 0, r2 = 0, cosv = 0;
  double fc1 = 0, fc2 = 0, dfc1 = 0, dfc2 = 0, gauss = 0;
};

bool make_triplet(const qxmd::Atoms& atoms, const AngularBasis& b, std::size_t i,
                  std::size_t j, std::size_t k, Triplet& t) {
  const auto dj = atoms.box.mic(atoms.pos(i), atoms.pos(j));
  const auto dk = atoms.box.mic(atoms.pos(i), atoms.pos(k));
  t.r1 = std::sqrt(dj[0] * dj[0] + dj[1] * dj[1] + dj[2] * dj[2]);
  t.r2 = std::sqrt(dk[0] * dk[0] + dk[1] * dk[1] + dk[2] * dk[2]);
  if (t.r1 <= 1e-12 || t.r2 <= 1e-12 || t.r1 >= b.rc || t.r2 >= b.rc)
    return false;
  for (int c = 0; c < 3; ++c) {
    t.dj[c] = dj[static_cast<std::size_t>(c)];
    t.dk[c] = dk[static_cast<std::size_t>(c)];
  }
  t.cosv = (t.dj[0] * t.dk[0] + t.dj[1] * t.dk[1] + t.dj[2] * t.dk[2]) /
           (t.r1 * t.r2);
  t.fc1 = b.fc(t.r1);
  t.fc2 = b.fc(t.r2);
  t.dfc1 = b.dfc(t.r1);
  t.dfc2 = b.dfc(t.r2);
  t.gauss = std::exp(-b.eta * (t.r1 * t.r1 + t.r2 * t.r2));
  return true;
}

} // namespace

void angular_features_for_atom(const qxmd::Atoms& atoms,
                               const qxmd::NeighborList& nl,
                               const AngularBasis& basis, std::size_t i,
                               double* out) {
  const std::size_t nc = basis.size();
  const auto& nbrs = nl.neighbors(i);
  for (std::size_t c = 0; c < nc; ++c) out[c] = 0.0;
  Triplet t;
  for (std::size_t a = 0; a < nbrs.size(); ++a)
    for (std::size_t bidx = a + 1; bidx < nbrs.size(); ++bidx) {
      if (!make_triplet(atoms, basis, i, nbrs[a], nbrs[bidx], t)) continue;
      const double env = t.gauss * t.fc1 * t.fc2;
      for (std::size_t c = 0; c < nc; ++c) {
        const auto [zeta, lambda] = basis.channels[c];
        const double base = 1.0 + lambda * t.cosv;
        if (base <= 0.0) continue;
        out[c] += std::pow(2.0, 1.0 - zeta) * std::pow(base, zeta) * env;
      }
    }
  flops::add(20ull * nc * nbrs.size() * nbrs.size() / 2);
}

void angular_descriptors(const qxmd::Atoms& atoms, const qxmd::NeighborList& nl,
                         const AngularBasis& basis, std::vector<double>& out,
                         std::size_t stride, std::size_t offset) {
  const std::size_t n = atoms.n();
  const std::size_t nc = basis.size();
  if (out.size() < n * stride || offset + nc > stride)
    throw std::invalid_argument("angular_descriptors: layout mismatch");

  // Each atom writes only its own slice; at ~35 us of triplet sums per
  // atom (~16 neighbors), 2 atoms make one chunk well over ~10 us.
  par::parallel_for(0, n, 2, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      angular_features_for_atom(atoms, nl, basis, i, out.data() + i * stride + offset);
  });
}

void angular_forces(const qxmd::Atoms& atoms, const qxmd::NeighborList& nl,
                    const AngularBasis& basis, const std::vector<double>& de_dg,
                    std::size_t stride, std::size_t offset,
                    std::vector<double>& forces) {
  const std::size_t n = atoms.n();
  const std::size_t nc = basis.size();
  if (de_dg.size() < n * stride || forces.size() != 3 * n)
    throw std::invalid_argument("angular_forces: layout mismatch");

  // Serial accumulation (forces on j/k cross atom rows).
  Triplet t;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& nbrs = nl.neighbors(i);
    const double* sens = de_dg.data() + i * stride + offset;
    for (std::size_t a = 0; a < nbrs.size(); ++a)
      for (std::size_t bidx = a + 1; bidx < nbrs.size(); ++bidx) {
        const std::size_t j = nbrs[a], k = nbrs[bidx];
        if (!make_triplet(atoms, basis, i, j, k, t)) continue;
        const double env = t.gauss * t.fc1 * t.fc2;

        // d(cos)/d(dj) and d(cos)/d(dk).
        double dcos_dj[3], dcos_dk[3];
        for (int c = 0; c < 3; ++c) {
          dcos_dj[c] = t.dk[c] / (t.r1 * t.r2) - t.cosv * t.dj[c] / (t.r1 * t.r1);
          dcos_dk[c] = t.dj[c] / (t.r1 * t.r2) - t.cosv * t.dk[c] / (t.r2 * t.r2);
        }

        // Accumulate sum over channels of dE/dG * dG/d(dj), dG/d(dk).
        double gj[3] = {0, 0, 0}, gk[3] = {0, 0, 0};
        for (std::size_t c = 0; c < nc; ++c) {
          const double w = sens[c];
          if (w == 0.0) continue;
          const auto [zeta, lambda] = basis.channels[c];
          const double base = 1.0 + lambda * t.cosv;
          if (base <= 0.0) continue;
          const double norm = std::pow(2.0, 1.0 - zeta);
          const double f_ang = std::pow(base, zeta);
          const double df_dcos = zeta * lambda * std::pow(base, zeta - 1.0);
          // dG/d(dj) = norm * [ df_dcos * dcos_dj * env
          //   + f_ang * (-2 eta dj) * env
          //   + f_ang * gauss * dfc1 * (dj/r1) * fc2 ]
          const double radial_j =
              norm * f_ang *
              (-2.0 * basis.eta * env + t.gauss * t.dfc1 * t.fc2 / t.r1);
          const double radial_k =
              norm * f_ang *
              (-2.0 * basis.eta * env + t.gauss * t.dfc2 * t.fc1 / t.r2);
          const double ang_w = norm * df_dcos * env;
          for (int c3 = 0; c3 < 3; ++c3) {
            gj[c3] += w * (ang_w * dcos_dj[c3] + radial_j * t.dj[c3]);
            gk[c3] += w * (ang_w * dcos_dk[c3] + radial_k * t.dk[c3]);
          }
        }

        // F = -dE/dr: r_i gets -(gj + gk), r_j gets +gj, r_k gets +gk.
        for (int c3 = 0; c3 < 3; ++c3) {
          forces[3 * i + static_cast<std::size_t>(c3)] -= gj[c3] + gk[c3];
          forces[3 * j + static_cast<std::size_t>(c3)] += gj[c3];
          forces[3 * k + static_cast<std::size_t>(c3)] += gk[c3];
        }
      }
  }
}

} // namespace mlmd::nnq
