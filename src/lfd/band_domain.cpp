#include "mlmd/lfd/band_domain.hpp"

#include <cmath>
#include <stdexcept>

#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/kin_prop.hpp"

namespace mlmd::lfd {

BandParallelDomain::BandParallelDomain(par::Comm& comm, const grid::Grid3& g,
                                       std::size_t norb_total, std::size_t nfilled,
                                       std::vector<double> vloc,
                                       BandDomainOptions opt)
    : comm_(comm), layout_(BandLayout::split(comm, norb_total)), wave_(g, 0),
      vloc_(std::move(vloc)), opt_(opt) {
  if (vloc_.size() != g.size())
    throw std::invalid_argument("BandParallelDomain: vloc size");
  if (nfilled > norb_total)
    throw std::invalid_argument("BandParallelDomain: nfilled > norb");

  // Build the full deterministic initial set, keep this rank's slice.
  SoAWave<double> full(g, norb_total);
  init_plane_waves(full);
  wave_ = SoAWave<double>(g, layout_.nlocal());
  for (std::size_t gp = 0; gp < g.size(); ++gp)
    for (std::size_t s = layout_.s0; s < layout_.s1; ++s)
      wave_.at(gp, s - layout_.s0) = full.at(gp, s);
  distributed_lowdin(comm_, layout_, wave_.psi, g.dv());
  psi0_slice_ = wave_.psi;

  f_slice_.assign(layout_.nlocal(), 0.0);
  f0_full_.assign(norb_total, 0.0);
  for (std::size_t s = 0; s < nfilled; ++s) f0_full_[s] = 2.0;
  for (std::size_t s = layout_.s0; s < layout_.s1; ++s)
    f_slice_[s - layout_.s0] = f0_full_[s];
}

void BandParallelDomain::qd_step(const double a[3]) {
  KinParams kp;
  kp.dt = opt_.dt_qd;
  kp.a[0] = a[0];
  kp.a[1] = a[1];
  kp.a[2] = a[2];
  // When the nonlocal correction fires at the end of this step, post the
  // round-0 psi0 ring transfer now (psi0 is constant): the boundary-slice
  // communication then overlaps the grid-local stencil work below instead
  // of serializing after it.
  const bool nlp_due = opt_.nlp_every > 0 && (steps_ + 1) % opt_.nlp_every == 0;
  RingPrefetch pre;
  if (nlp_due) pre = ring_prefetch(comm_, psi0_slice_);

  // Grid-local: zero communication.
  vloc_prop(wave_, vloc_, 0.5 * opt_.dt_qd);
  kin_prop(wave_, kp, KinVariant::kReordered);
  vloc_prop(wave_, vloc_, 0.5 * opt_.dt_qd);

  ++steps_;
  if (nlp_due) {
    // Collective GEMMified nonlocal correction (Eq. 5, ring systolic).
    distributed_nlp_prop(comm_, layout_, wave_.grid, wave_.psi, psi0_slice_,
                         opt_.scissor_delta *
                             (opt_.dt_qd * static_cast<double>(opt_.nlp_every)),
                         &pre);
  }
}

std::vector<double> BandParallelDomain::density_field() {
  return distributed_density(comm_, wave_.psi, f_slice_);
}

double BandParallelDomain::n_exc() {
  // S = psi0^H psi(t) dv over the FULL orbital set (distributed), then the
  // occupied-subspace leakage as in LfdDomain::n_exc.
  auto s = distributed_overlap(comm_, layout_, psi0_slice_, wave_.psi,
                               wave_.grid.dv());
  const std::size_t no = layout_.norb_total;
  double leakage = 0.0;
  for (std::size_t col = 0; col < no; ++col) {
    double q = 0.0;
    for (std::size_t row = 0; row < no; ++row)
      if (f0_full_[row] > 0.0) q += std::norm(s(row, col));
    leakage += f0_full_[col] * std::max(0.0, 1.0 - std::min(q, 1.0));
  }
  return leakage;
}

} // namespace mlmd::lfd
