#pragma once
// Local-environment descriptors (the Allegro-style strictly-local,
// invariance-by-construction representation, paper Sec. V.A.6).
//
// Atomistic flavour: per-atom radial fingerprints
//   G_k(i) = sum_{j in N(i)} exp(-((r_ij - mu_k)/eta)^2) * fc(r_ij)
// with a smooth cosine cutoff fc. G is rotation/translation invariant, so
// an energy model E = sum_i mlp(G(i)) yields exactly equivariant forces
// via the analytic chain rule (pair_grad provides dG_k/dr terms).
//
// Lattice flavour: per-cell features of a FerroLattice polarization field
// (the degrees of freedom XS-NNQMD drives in the Fig. 3 pipeline).

#include <array>
#include <cstddef>
#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/qxmd/atoms.hpp"
#include "mlmd/qxmd/neighbor.hpp"

namespace mlmd::nnq {

/// Radial basis specification.
struct RadialBasis {
  double rc = 10.0;  ///< cutoff (matches the neighbor list)
  double eta = 1.5;  ///< Gaussian width
  std::vector<double> mu; ///< Gaussian centres

  /// Evenly spaced centres in [r0, rc].
  static RadialBasis make(std::size_t k, double r0, double rc, double eta);

  std::size_t size() const { return mu.size(); }

  /// Smooth cutoff: fc(r) = 0.5 (cos(pi r / rc) + 1) for r < rc, else 0.
  double fc(double r) const;
  double dfc(double r) const;

  /// Basis values g_k(r) and derivatives g'_k(r) for one pair distance.
  void eval(double r, std::vector<double>& g, std::vector<double>& dg) const;
};

/// All per-atom fingerprints: natoms x (nbasis * ntypes), row-major.
/// With ntypes > 1 each neighbour contributes to the radial channel of
/// its species (atoms.type), so unlike atoms are distinguishable — the
/// minimal species-awareness a ternary material like PbTiO3 needs.
std::vector<double> atom_descriptors(const qxmd::Atoms& atoms,
                                     const qxmd::NeighborList& nl,
                                     const RadialBasis& basis, int ntypes = 1);

/// Per-cell lattice features: the cell's u, its squared norm, and the
/// four nearest-neighbour vectors (15 numbers). Raw but complete — the
/// MLP learns the invariances the ferro Hamiltonian actually has.
inline constexpr std::size_t kLatticeFeatures = 16;

void lattice_features(const ferro::FerroLattice& lat, std::size_t x, std::size_t y,
                      std::vector<double>& out);
/// The same features written to out[0, kLatticeFeatures).
void lattice_features(const ferro::FerroLattice& lat, std::size_t x, std::size_t y,
                      double* out);

} // namespace mlmd::nnq
