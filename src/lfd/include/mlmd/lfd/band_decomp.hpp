#pragma once
// Hybrid band decomposition (paper Sec. V.A.1): within one DC domain,
// multiple MPI ranks subdivide the KS orbitals ("bands"). Grid-local
// operations (kin_prop, vloc_prop) act on each rank's slice without any
// communication; orbital-space operations — the overlap matrix behind
// orthonormalization and the GEMMified nonlocal correction — are computed
// with a ring systolic pattern: each rank's slice circulates around the
// domain communicator while every rank accumulates its blocks, so no rank
// ever holds more than two slices and the traffic is the textbook
// P-round ring (this is how plane-wave codes do distributed subspace
// operations).
//
// All entry points are collective over the communicator and reproduce the
// serial result exactly up to FP summation order (tests pin this down).

#include <complex>

#include "mlmd/la/matrix.hpp"
#include "mlmd/lfd/wavefunction.hpp"
#include "mlmd/par/simcomm.hpp"

namespace mlmd::lfd {

/// Which contiguous band slice a rank owns.
struct BandLayout {
  std::size_t norb_total = 0;
  std::size_t s0 = 0, s1 = 0; ///< this rank's orbitals [s0, s1)

  std::size_t nlocal() const { return s1 - s0; }

  /// Contiguous near-equal split of `norb_total` over the communicator.
  static BandLayout split(const par::Comm& comm, std::size_t norb_total);

  /// Slice bounds of an arbitrary rank under the same split.
  static std::pair<std::size_t, std::size_t> slice_of(int rank, int nranks,
                                                      std::size_t norb_total);
};

/// Pre-posted round-0 ring transfer: the boundary slice exchange of a
/// future ring circulation, posted early so grid-local stencil work can
/// run while it flies. Obtain via ring_prefetch and hand to the matching
/// distributed_overlap/distributed_nlp_prop call; at most one prefetch may
/// be outstanding per communicator.
struct RingPrefetch {
  par::CommHandle send, recv;
  bool active = false;
};

/// Post the round-0 transfer of a ring circulation over `slice` (send the
/// slice downstream, receive the upstream one). No-op (inactive prefetch)
/// when the ring is trivial (one rank).
RingPrefetch ring_prefetch(par::Comm& comm,
                           const la::Matrix<std::complex<double>>& slice);

/// Full overlap matrix S = A^H B * dv (norb_total x norb_total), where
/// every rank holds the column slices A[:, s0:s1) and B[:, s0:s1).
/// Returned (identically) on every rank. One ring circulation of A.
/// `prefetch`, if active, must be the ring_prefetch of `a_slice` and is
/// consumed as the circulation's round-0 transfer.
la::Matrix<std::complex<double>> distributed_overlap(
    par::Comm& comm, const BandLayout& layout,
    const la::Matrix<std::complex<double>>& a_slice,
    const la::Matrix<std::complex<double>>& b_slice, double dv,
    RingPrefetch* prefetch = nullptr);

/// In-place column transform psi <- psi * C, where psi's columns are
/// band-distributed and C is the full norb x norb coefficient matrix
/// (replicated). One ring circulation of the original slices.
void distributed_transform(par::Comm& comm, const BandLayout& layout,
                           la::Matrix<std::complex<double>>& psi_slice,
                           const la::Matrix<std::complex<double>>& coef);

/// Distributed Lowdin orthonormalization: psi <- psi S^{-1/2} with
/// S = psi^H psi * dv. Two ring circulations.
void distributed_lowdin(par::Comm& comm, const BandLayout& layout,
                        la::Matrix<std::complex<double>>& psi_slice, double dv);

/// Electron density from band-distributed orbitals: every rank
/// contributes its slice's occupation-weighted density; one allreduce
/// assembles the total on all ranks. `f_slice` holds the occupations of
/// this rank's orbitals.
std::vector<double> distributed_density(par::Comm& comm,
                                        const la::Matrix<std::complex<double>>& psi_slice,
                                        const std::vector<double>& f_slice);

/// Distributed GEMMified nonlocal correction (Eq. 5):
/// psi(t) += delta * psi0 * (psi0^H psi(t) * dv), then per-orbital
/// renormalization. psi0 and psi(t) are band-distributed alike.
/// `prefetch`, if active, must be the ring_prefetch of `psi0_slice` (the
/// slice the leading overlap circulates).
void distributed_nlp_prop(par::Comm& comm, const BandLayout& layout,
                          const grid::Grid3& grid,
                          la::Matrix<std::complex<double>>& psi_slice,
                          const la::Matrix<std::complex<double>>& psi0_slice,
                          std::complex<double> delta,
                          RingPrefetch* prefetch = nullptr);

} // namespace mlmd::lfd
