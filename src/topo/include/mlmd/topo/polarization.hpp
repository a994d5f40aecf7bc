#pragma once
// Bridge from atomistic (QXMD / XS-NNQMD) coordinates to the polarization
// field the topology tools analyze: per-cell polar displacement is the
// average displacement of the atoms binned into a 2D cell grid (the
// local soft-mode amplitude, how polar textures are extracted from MD in
// practice).

#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/qxmd/atoms.hpp"

namespace mlmd::topo {

/// Average displacement (atoms.r - r_ref) per cell of an lx x ly grid
/// spanning the box's x/y cross-section (z folded in). r_ref is the 3N
/// reference (paraelectric) configuration. Empty cells get zero vectors.
std::vector<ferro::Vec3> polarization_from_atoms(const qxmd::Atoms& atoms,
                                                 const std::vector<double>& r_ref,
                                                 std::size_t lx, std::size_t ly);

} // namespace mlmd::topo
