#pragma once
// Crystal-structure generators for the paper's material workloads. The
// headline system is the ABO3 perovskite PbTiO3 (paper Sec. VI.A): A
// cations (type 0) on cell corners, the B cation (type 1) at the body
// centre, oxygens (type 2) on the three face centres — 5 atoms per cell.
// The ferroelectric distortion displaces the B sublattice against the
// oxygen cage (examples/perovskite_domains imprints it as stripe domains).

#include "mlmd/qxmd/atoms.hpp"

namespace mlmd::qxmd {

struct PerovskiteSpec {
  double a0 = 7.5;     ///< cubic lattice constant [Bohr] (~3.97 A)
  double mass_a = 377000.0; ///< Pb [m_e]
  double mass_b = 87300.0;  ///< Ti
  double mass_o = 29200.0;  ///< O
};

/// nx x ny x nz cubic perovskite supercell (5 atoms per cell).
Atoms make_perovskite(std::size_t nx, std::size_t ny, std::size_t nz,
                      const PerovskiteSpec& spec = {});

/// Count atoms of a given type.
std::size_t count_type(const Atoms& atoms, int type);

} // namespace mlmd::qxmd
