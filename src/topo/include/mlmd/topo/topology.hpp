#pragma once
// Topological analysis of polar textures (paper Secs. VI.A, Fig. 3).
//
// The topological charge of a 2D lattice vector field is computed with
// the Berg-Luscher lattice solid-angle construction: normalize the field,
// split every plaquette into two triangles, sum the signed spherical
// areas; Q = total / 4 pi. For a skyrmion Q = +-1 and is integer for any
// texture without zeros, which is what makes topological devices robust
// ("protected from thermal noise", Sec. VI.A) and what the switching
// experiment measures.

#include <cstddef>
#include <vector>

#include "mlmd/ferro/lattice.hpp"

namespace mlmd::topo {

using ferro::Vec3;

/// Signed solid angle of the spherical triangle (n1, n2, n3) (unit
/// vectors), via the Oosterom-Strackee formula. Range (-2pi, 2pi).
double solid_angle(const Vec3& n1, const Vec3& n2, const Vec3& n3);

/// Topological charge of the lattice's periodic field. Cells with
/// |u| < min_norm contribute zero (topological charge is undefined at
/// zeros).
double topological_charge(const ferro::FerroLattice& lat, double min_norm = 1e-6);

/// Per-plaquette topological charge density (for defect localization),
/// one value per cell in FerroLattice::index() order: the plaquette whose
/// lower corner is that cell.
std::vector<double> charge_density(const ferro::FerroLattice& lat,
                                   double min_norm = 1e-6);

// --- texture initializers -------------------------------------------------

/// Write a Neel-type skyrmion of radius R (lattice units) centred at
/// (cx, cy) into the field: u_z flips from -amp (core) to +amp (far),
/// in-plane components point radially across the wall. Charge -> +-1.
void paint_skyrmion(ferro::FerroLattice& lat, double cx, double cy, double radius,
                    double amp, int charge_sign = +1);

/// Tile the lattice with an nx x ny skyrmion superlattice (the Fig. 3
/// initial condition): background +amp, one skyrmion per tile.
void init_skyrmion_superlattice(ferro::FerroLattice& lat, std::size_t nx,
                                std::size_t ny, double radius_fraction = 0.3);

/// 180-degree stripe domains of the given period along x.
void init_stripe_domains(ferro::FerroLattice& lat, std::size_t period);

/// In-plane polar vortex centred at (cx, cy): u winds azimuthally with
/// the given integer winding number; u_z = 0 away from the core. A polar
/// vortex has zero skyrmion charge but nonzero in-plane winding — the
/// other supertexture family of the paper's Sec. VI.A.
void paint_vortex(ferro::FerroLattice& lat, double cx, double cy, double amp,
                  int winding = +1, double core_radius = 2.0);

/// Uniform z polarization (+amp).
void init_uniform(ferro::FerroLattice& lat, double sign = +1.0);

} // namespace mlmd::topo
