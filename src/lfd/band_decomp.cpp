#include "mlmd/lfd/band_decomp.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "mlmd/la/eig.hpp"
#include "mlmd/la/gemm.hpp"

namespace mlmd::lfd {

using cd = std::complex<double>;

std::pair<std::size_t, std::size_t> BandLayout::slice_of(int rank, int nranks,
                                                         std::size_t norb_total) {
  const std::size_t base = norb_total / static_cast<std::size_t>(nranks);
  const std::size_t extra = norb_total % static_cast<std::size_t>(nranks);
  const auto r = static_cast<std::size_t>(rank);
  const std::size_t s0 = r * base + std::min(r, extra);
  const std::size_t s1 = s0 + base + (r < extra ? 1 : 0);
  return {s0, s1};
}

BandLayout BandLayout::split(const par::Comm& comm, std::size_t norb_total) {
  BandLayout l;
  l.norb_total = norb_total;
  auto [s0, s1] = slice_of(comm.rank(), comm.size(), norb_total);
  l.s0 = s0;
  l.s1 = s1;
  return l;
}

namespace {

/// Circulate slices around the ring. `visit(owner_rank, slice)` is called
/// once per rank, starting with this rank's own slice. Slices may have
/// different column counts; each transfer carries the flattened matrix.
///
/// Each round's transfer is posted *before* the round's block GEMM, so
/// the boundary communication overlaps the compute on the slice already
/// in hand (the ring-systolic overlap plane-wave codes rely on). An
/// active `pre` (ring_prefetch) supplies the round-0 transfer, posted
/// even earlier — before the caller's grid-local stencil work.
void ring_visit(par::Comm& comm, const la::Matrix<cd>& my_slice,
                const std::function<void(int, const la::Matrix<cd>&)>& visit,
                lfd::RingPrefetch* pre = nullptr) {
  const int p = comm.size();
  const int next = (comm.rank() + 1) % p;
  const int prev = (comm.rank() + p - 1) % p;
  const std::size_t ngrid = my_slice.rows();

  la::Matrix<cd> current = my_slice;
  int owner = comm.rank();
  std::vector<cd> incoming;
  for (int round = 0; round < p; ++round) {
    const bool last = round + 1 == p;
    par::CommHandle hs, hr;
    if (!last) {
      if (pre && pre->active && round == 0) {
        // Round 0 was posted by ring_prefetch, before the caller's
        // stencil work — adopt its handles.
        hs = pre->send;
        hr = pre->recv;
        pre->active = false;
      } else {
        hs = comm.isend(next, round,
                        std::span<const cd>(current.data(), current.size()));
        hr = comm.irecv(prev, round);
      }
    }
    visit(owner, current);
    if (last) break;
    comm.wait_into(hr, incoming);
    hs.wait();
    owner = (owner + p - 1) % p;
    const std::size_t cols = incoming.size() / ngrid;
    current.resize(ngrid, cols);
    std::copy(incoming.begin(), incoming.end(), current.data());
  }
}

} // namespace

RingPrefetch ring_prefetch(par::Comm& comm, const la::Matrix<cd>& slice) {
  RingPrefetch pre;
  const int p = comm.size();
  if (p <= 1) return pre;
  const int next = (comm.rank() + 1) % p;
  const int prev = (comm.rank() + p - 1) % p;
  pre.send =
      comm.isend(next, 0, std::span<const cd>(slice.data(), slice.size()));
  pre.recv = comm.irecv(prev, 0);
  pre.active = true;
  return pre;
}

la::Matrix<cd> distributed_overlap(par::Comm& comm, const BandLayout& layout,
                                   const la::Matrix<cd>& a_slice,
                                   const la::Matrix<cd>& b_slice, double dv,
                                   RingPrefetch* prefetch) {
  const std::size_t no = layout.norb_total;
  la::Matrix<cd> s(no, no);

  // Each visit computes the block S[rows of owner's slice, my columns].
  ring_visit(
      comm, a_slice,
      [&](int owner, const la::Matrix<cd>& a_rem) {
        la::Matrix<cd> block(a_rem.cols(), b_slice.cols());
        la::gemm(la::Trans::kC, la::Trans::kN, cd(dv, 0.0), a_rem, b_slice,
                 cd{}, block);
        const auto [r0, r1] = BandLayout::slice_of(owner, comm.size(), no);
        for (std::size_t i = r0; i < r1; ++i)
          for (std::size_t j = 0; j < b_slice.cols(); ++j)
            s(i, layout.s0 + j) = block(i - r0, j);
      },
      prefetch);

  // Element-wise allreduce assembles the full matrix on every rank (each
  // element is nonzero on exactly one rank).
  auto flat = comm.allreduce(std::span<const double>(
                                 reinterpret_cast<const double*>(s.data()),
                                 2 * s.size()),
                             par::ReduceOp::kSum);
  std::copy(flat.begin(), flat.end(), reinterpret_cast<double*>(s.data()));
  return s;
}

void distributed_transform(par::Comm& comm, const BandLayout& layout,
                           la::Matrix<cd>& psi_slice,
                           const la::Matrix<cd>& coef) {
  if (coef.rows() != layout.norb_total || coef.cols() != layout.norb_total)
    throw std::invalid_argument("distributed_transform: coef shape");
  const std::size_t ngrid = psi_slice.rows();
  la::Matrix<cd> result(ngrid, layout.nlocal());

  ring_visit(comm, psi_slice, [&](int owner, const la::Matrix<cd>& remote) {
    // result += remote * coef[owner rows, my columns].
    const auto [r0, r1] = BandLayout::slice_of(owner, comm.size(), layout.norb_total);
    la::Matrix<cd> cblk(r1 - r0, layout.nlocal());
    for (std::size_t i = r0; i < r1; ++i)
      for (std::size_t j = 0; j < layout.nlocal(); ++j)
        cblk(i - r0, j) = coef(i, layout.s0 + j);
    la::gemm(la::Trans::kN, la::Trans::kN, cd(1.0, 0.0), remote, cblk,
             cd(1.0, 0.0), result);
  });
  psi_slice = std::move(result);
}

void distributed_lowdin(par::Comm& comm, const BandLayout& layout,
                        la::Matrix<cd>& psi_slice, double dv) {
  auto s = distributed_overlap(comm, layout, psi_slice, psi_slice, dv);
  // S^{-1/2}, computed redundantly (norb x norb is small next to psi).
  auto es = la::eigh(s);
  const std::size_t no = layout.norb_total;
  la::Matrix<cd> shalf(no, no);
  for (std::size_t i = 0; i < no; ++i)
    for (std::size_t j = 0; j < no; ++j) {
      cd acc{};
      for (std::size_t q = 0; q < no; ++q)
        acc += es.vectors(i, q) * std::conj(es.vectors(j, q)) /
               std::sqrt(std::max(es.values[q], 1e-300));
      shalf(i, j) = acc;
    }
  distributed_transform(comm, layout, psi_slice, shalf);
}

std::vector<double> distributed_density(par::Comm& comm,
                                        const la::Matrix<cd>& psi_slice,
                                        const std::vector<double>& f_slice) {
  if (f_slice.size() != psi_slice.cols())
    throw std::invalid_argument("distributed_density: occupation slice size");
  std::vector<double> rho(psi_slice.rows(), 0.0);
  for (std::size_t g = 0; g < psi_slice.rows(); ++g)
    for (std::size_t s = 0; s < psi_slice.cols(); ++s)
      rho[g] += f_slice[s] * std::norm(psi_slice(g, s));
  return comm.allreduce(std::span<const double>(rho), par::ReduceOp::kSum);
}

void distributed_nlp_prop(par::Comm& comm, const BandLayout& layout,
                          const grid::Grid3& grid, la::Matrix<cd>& psi_slice,
                          const la::Matrix<cd>& psi0_slice,
                          std::complex<double> delta, RingPrefetch* prefetch) {
  const double dv = grid.dv();
  // CGEMM(1), distributed: S = psi0^H psi(t) * dv.
  auto s = distributed_overlap(comm, layout, psi0_slice, psi_slice, dv,
                               prefetch);
  // CGEMM(2), distributed: psi += delta * psi0 * S -> transform psi0's
  // slices by (delta * S)[rows, my cols] and add.
  la::Matrix<cd> update = psi0_slice;
  for (std::size_t i = 0; i < s.size(); ++i) s.data()[i] *= delta;
  distributed_transform(comm, layout, update, s);
  for (std::size_t i = 0; i < psi_slice.size(); ++i)
    psi_slice.data()[i] += update.data()[i];

  // Per-orbital renormalization (columns are rank-local: no comm).
  for (std::size_t j = 0; j < layout.nlocal(); ++j) {
    double n2 = 0.0;
    for (std::size_t g = 0; g < psi_slice.rows(); ++g)
      n2 += std::norm(psi_slice(g, j));
    const double inv = 1.0 / std::sqrt(std::max(n2 * dv, 1e-300));
    for (std::size_t g = 0; g < psi_slice.rows(); ++g) psi_slice(g, j) *= inv;
  }
}

} // namespace mlmd::lfd
