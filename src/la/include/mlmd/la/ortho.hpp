#pragma once
// Orthonormalization of KS orbital sets.
//
// Orbitals live in the columns-of-interest of a row-major N_grid x N_orb
// matrix (the SoA wavefunction layout). Modified Gram-Schmidt runs over
// orbital columns.

#include <complex>

#include "mlmd/la/matrix.hpp"

namespace mlmd::la {

/// In-place modified Gram-Schmidt over the columns of psi, with inner
/// products weighted by the grid volume element `dv` (so normalization
/// means integral |psi|^2 dv = 1).
void mgs_orthonormalize(Matrix<std::complex<double>>& psi, double dv);

/// Max |S_ij - delta_ij| for S = psi^H psi * dv (orthonormality residual).
double orthonormality_error(const Matrix<std::complex<double>>& psi, double dv);

} // namespace mlmd::la
