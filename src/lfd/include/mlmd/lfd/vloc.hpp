#pragma once
// Local Kohn-Sham potential v_loc(r) (paper Eq. 3): ionic local
// pseudopotential + Hartree + local exchange-correlation, and the
// diagonal phase propagator exp(-i dt v_loc) applied to SoA wavefunctions.
//
// Ions enter through smooth Gaussian-well local pseudopotentials
// (minimum-image periodic). Exchange-correlation uses Slater exchange,
// the simplest local functional — chemical realism is not needed for any
// measured quantity (DESIGN.md Sec. 1), but the code path (density ->
// v_xc -> propagation) is the real one.

#include <array>
#include <vector>

#include "mlmd/grid/grid3.hpp"
#include "mlmd/lfd/wavefunction.hpp"

namespace mlmd::lfd {

/// One ion for potential assembly: position [Bohr] and pseudopotential
/// parameters (well depth v0 > 0 means attractive, width sigma).
struct Ion {
  double x = 0, y = 0, z = 0;
  double v0 = 1.0;
  double sigma = 1.0;
  double zval = 2.0; ///< valence charge (for neutralization accounting)
};

/// v_ion(r) = -sum_a v0_a exp(-|r - R_a|^2 / (2 sigma_a^2)), periodic.
std::vector<double> ionic_potential(const grid::Grid3& g, const std::vector<Ion>& ions);

/// Slater exchange potential v_x(rho) = -(3 rho / pi)^{1/3}.
void add_xc_potential(const std::vector<double>& rho, std::vector<double>& v);

/// psi(g,s) *= exp(-i dt v[g]) for all orbitals (diagonal propagator).
template <class Real>
void vloc_prop(SoAWave<Real>& w, const std::vector<double>& v, double dt);

extern template void vloc_prop<float>(SoAWave<float>&, const std::vector<double>&,
                                      double);
extern template void vloc_prop<double>(SoAWave<double>&, const std::vector<double>&,
                                       double);

/// Potential energy sum_s f_s <psi_s| v |psi_s>.
template <class Real>
double potential_energy(const SoAWave<Real>& w, const std::vector<double>& f,
                        const std::vector<double>& v);

extern template double potential_energy<float>(const SoAWave<float>&,
                                               const std::vector<double>&,
                                               const std::vector<double>&);
extern template double potential_energy<double>(const SoAWave<double>&,
                                                const std::vector<double>&,
                                                const std::vector<double>&);

/// Analytic derivative of the ionic potential w.r.t. ion `a`'s position:
/// F_a = -integral rho(r) dV_ion/dR_a dr (Hellmann-Feynman force on the
/// ion from the electron density). Returns {fx, fy, fz}.
std::array<double, 3> ion_force(const grid::Grid3& g, const std::vector<double>& rho,
                                const Ion& ion);

} // namespace mlmd::lfd
