#pragma once
// Multi-domain DC-MESH over the SimComm message-passing substrate
// (paper Sec. V.A.1: one MPI communicator per domain; here one rank per
// domain) with the multiscale Maxwell coupling: a shared 1D macroscopic
// EM grid hosts one microscopic domain per assigned cell. Each MD step:
//
//   1. every rank computes its domain's macroscopic current J(X_alpha),
//   2. allgather of the per-cell currents (small: one double per domain),
//      posted before the A-independent front of the MD step so the
//      collective overlaps it,
//   3. every rank advances an identical replicated Maxwell1D (cheap,
//      deterministic — avoids a dedicated Maxwell rank),
//   4. every rank finishes its domain's MD step with A(X_alpha, t),
//   5. after the last step, n_exc is gathered to rank 0 once — the
//      single MPI gather of Sec. V.A.8.

#include <vector>

#include "mlmd/maxwell/maxwell1d.hpp"
#include "mlmd/mesh/dcmesh.hpp"
#include "mlmd/par/simcomm.hpp"

namespace mlmd::mesh {

struct ParallelMeshOptions {
  MeshOptions mesh;
  std::size_t grid_n = 8;      ///< per-domain cubic grid extent
  std::size_t norb = 4;        ///< orbitals per domain
  std::size_t nfilled = 2;
  maxwell::Pulse pulse;
  std::size_t maxwell_cells_per_domain = 4;
  int md_steps = 2;
};

struct ParallelMeshResult {
  std::vector<double> n_exc_per_domain; ///< gathered on rank 0
  double total_n_exc = 0.0;
  par::TrafficStats traffic;
  /// Per-rank comm account (op calls/bytes, wait time), one entry per
  /// rank, as par::run returns it.
  std::vector<par::RankTraffic> rank_traffic;
  double wall_seconds = 0.0;
};

/// Run `nranks` domains (one rank each). Returns rank 0's gathered data.
ParallelMeshResult run_parallel_mesh(int nranks, const ParallelMeshOptions& opt);

} // namespace mlmd::mesh
