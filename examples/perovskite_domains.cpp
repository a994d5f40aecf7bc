// Ferroelectric domains in an atomistic perovskite supercell: build
// PbTiO3-like ABO3 cells, imprint 180-degree up/down polar domains via
// the soft-mode displacement, verify the structure with partial g(r),
// and recover the domain pattern by binning atomic displacements back
// into a polarization field (the atoms -> texture bridge the topology
// analysis of the Fig. 3 pipeline rides on).
//
// Run: ./perovskite_domains [--cells=8] [--uz=0.35] [--period=4]

#include <cstdio>

#include "mlmd/analysis/rdf.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/qxmd/structures.hpp"
#include "mlmd/topo/polarization.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"cells", "uz", "period"},
                       "usage: perovskite_domains [--cells=N] [--uz=X] "
                       "[--period=N]"))
    return 1;
  const auto cells = static_cast<std::size_t>(cli.integer("cells", 8));
  const double uz = cli.real("uz", 0.35);
  const auto period = static_cast<std::size_t>(cli.integer("period", 4));

  qxmd::PerovskiteSpec spec;
  auto atoms = qxmd::make_perovskite(cells, cells, 1, spec);
  auto reference = atoms.r;
  std::printf("# perovskite supercell: %zu atoms (%zu A, %zu B, %zu O)\n",
              atoms.n(), qxmd::count_type(atoms, 0), qxmd::count_type(atoms, 1),
              qxmd::count_type(atoms, 2));

  // Structure check on a thicker supercell (the domain slab is one cell
  // thin along z, too thin for g(r) out to the first shell).
  {
    auto bulk = qxmd::make_perovskite(4, 4, 4, spec);
    auto bo = analysis::radial_distribution(bulk, 0.49 * bulk.box.lz, 200, 1, 2);
    std::printf("# B-O first shell: %.3f Bohr (ideal %.3f)\n",
                analysis::first_peak(bo, 1.0), 0.5 * spec.a0);
  }

  // Imprint stripe domains: polarization flips sign every `period` cells.
  for (std::size_t i = 0; i < atoms.n(); ++i) {
    const auto cell_x = static_cast<std::size_t>(
        reference[3 * i] / spec.a0);
    const double sign = (cell_x / period) % 2 == 0 ? 1.0 : -1.0;
    if (atoms.type[i] == 1)
      atoms.pos(i)[2] += sign * uz;
    else if (atoms.type[i] == 2)
      atoms.pos(i)[2] -= 0.5 * sign * uz;
    atoms.box.wrap(atoms.pos(i));
  }

  // Recover the domain pattern from the atoms.
  auto field = topo::polarization_from_atoms(atoms, reference, cells, cells);
  std::printf("# recovered polarization u_z per cell column (x ->):\n# ");
  for (std::size_t x = 0; x < cells; ++x) {
    double uz_col = 0;
    for (std::size_t y = 0; y < cells; ++y) uz_col += field[x * cells + y][2];
    std::printf("%+.2f ", uz_col / static_cast<double>(cells));
  }
  std::printf("\n");

  // Count domain walls (sign changes along x).
  std::size_t walls = 0;
  for (std::size_t x = 0; x < cells; ++x) {
    const double a = field[x * cells][2];
    const double b = field[((x + 1) % cells) * cells][2];
    if (a * b < 0) ++walls;
  }
  std::printf("# domain walls along x: %zu (expect %zu for period %zu)\n", walls,
              cells / period, period);
  return 0;
}
