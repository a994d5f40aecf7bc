#include "mlmd/mesh/multidomain.hpp"

#include <mutex>

#include "mlmd/common/timer.hpp"
#include "mlmd/common/units.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::mesh {

ParallelMeshResult run_parallel_mesh(int nranks, const ParallelMeshOptions& opt) {
  ParallelMeshResult result;
  std::mutex result_mu;
  Timer wall;

  auto traffic = par::run(nranks, [&](par::Comm& comm) {
    const int rank = comm.rank();
    const int nd = comm.size();

    // Macroscopic EM axis: nd domains, each at the centre of its span of
    // macro cells, plus vacuum padding on both sides for the source.
    const std::size_t pad = 8;
    const std::size_t ncells =
        2 * pad + static_cast<std::size_t>(nd) * opt.maxwell_cells_per_domain;
    const double dx = 200.0; // Bohr per macro cell
    const double dt_em = 0.5 * dx / units::c_light;
    maxwell::Maxwell1D em(ncells, dx, dt_em);
    em.set_source(2, opt.pulse);
    const std::size_t my_cell =
        pad + static_cast<std::size_t>(rank) * opt.maxwell_cells_per_domain +
        opt.maxwell_cells_per_domain / 2;

    // Per-domain microscopic system: the same small ionic cluster on every
    // rank, so domains differ only through the field at their macro cell.
    grid::Grid3 g{opt.grid_n, opt.grid_n, opt.grid_n, 0.7, 0.7, 0.7};
    std::vector<lfd::Ion> ions = {
        lfd::Ion{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.6, 2.0}};
    DcMeshDomain dom(g, opt.norb, opt.nfilled, ions, opt.mesh);

    const double dt_md = dom.md_dt();
    const int em_substeps = std::max(1, static_cast<int>(dt_md / dt_em));

    std::vector<double> j_cells(ncells, 0.0);
    std::vector<double> j_all;
    for (int step = 0; step < opt.md_steps; ++step) {
      // (1) local macroscopic current at this domain's macro cell.
      const double a_here = em.a_at(my_cell);
      const auto j = dom.current(a_here);
      const double j_mine = j[kPolarizationAxis];

      // (2) post the current allgather, then run the A-independent front
      // of the MD step (ion forces, Verlet positions, delta_v_loc
      // exchange) while the collective flies.
      auto h = comm.iallgather(j_mine);
      obs::ObsScope step_span("mesh.md_step", obs::Cat::kStep);
      auto pending = dom.md_step_begin();
      comm.wait_into(h, j_all);

      // (3) replicated Maxwell advance over one MD step.
      for (int d = 0; d < nd; ++d) {
        const std::size_t cell =
            pad + static_cast<std::size_t>(d) * opt.maxwell_cells_per_domain +
            opt.maxwell_cells_per_domain / 2;
        j_cells[cell] = j_all[static_cast<std::size_t>(d)];
      }
      for (int s = 0; s < em_substeps; ++s) em.step(j_cells);

      // (4) finish the domain MD step with the fresh local A.
      dom.md_step_finish(pending, em.a_at(my_cell));
    }

    // (5) single n_exc gather to rank 0 (Sec. V.A.8).
    auto gathered = comm.gather(dom.lfd().n_exc(), 0);
    if (rank == 0) {
      std::lock_guard lk(result_mu);
      result.n_exc_per_domain = std::move(gathered);
      for (double v : result.n_exc_per_domain) result.total_n_exc += v;
    }
  });

  result.traffic = traffic;
  result.rank_traffic = std::move(traffic.ranks);
  result.wall_seconds = wall.seconds();
  return result;
}

} // namespace mlmd::mesh
