#include "mlmd/topo/polarization.hpp"

#include <cmath>
#include <stdexcept>

namespace mlmd::topo {

std::vector<ferro::Vec3> polarization_from_atoms(const qxmd::Atoms& atoms,
                                                 const std::vector<double>& r_ref,
                                                 std::size_t lx, std::size_t ly) {
  if (r_ref.size() != atoms.r.size())
    throw std::invalid_argument("polarization_from_atoms: reference size");
  if (atoms.box.lx <= 0 || atoms.box.ly <= 0)
    throw std::invalid_argument("polarization_from_atoms: box not set");

  std::vector<ferro::Vec3> field(lx * ly, ferro::Vec3{0, 0, 0});
  std::vector<std::size_t> counts(lx * ly, 0);

  for (std::size_t i = 0; i < atoms.n(); ++i) {
    const double* r = atoms.pos(i);
    // Displacement with minimum image against the reference site.
    const auto d = atoms.box.mic(r, r_ref.data() + 3 * i);
    // Cell from the REFERENCE position (atoms stay attached to their
    // cell even after large displacements).
    auto cx = static_cast<std::size_t>(r_ref[3 * i] / atoms.box.lx *
                                       static_cast<double>(lx)) % lx;
    auto cy = static_cast<std::size_t>(r_ref[3 * i + 1] / atoms.box.ly *
                                       static_cast<double>(ly)) % ly;
    auto& cell = field[cx * ly + cy];
    for (int k = 0; k < 3; ++k) cell[static_cast<std::size_t>(k)] += d[static_cast<std::size_t>(k)];
    counts[cx * ly + cy] += 1;
  }
  for (std::size_t c = 0; c < field.size(); ++c)
    if (counts[c] > 0)
      for (int k = 0; k < 3; ++k)
        field[c][static_cast<std::size_t>(k)] /= static_cast<double>(counts[c]);
  return field;
}

} // namespace mlmd::topo
