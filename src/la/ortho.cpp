#include "mlmd/la/ortho.hpp"

#include <algorithm>
#include <cmath>

#include "mlmd/common/flops.hpp"
#include "mlmd/la/gemm.hpp"

namespace mlmd::la {

using cd = std::complex<double>;

void mgs_orthonormalize(Matrix<cd>& psi, double dv) {
  const std::size_t ng = psi.rows(), no = psi.cols();
  flops::add(8ull * ng * no * no);
  for (std::size_t j = 0; j < no; ++j) {
    // Remove projections onto previous orbitals.
    for (std::size_t q = 0; q < j; ++q) {
      cd overlap{};
      for (std::size_t g = 0; g < ng; ++g) overlap += std::conj(psi(g, q)) * psi(g, j);
      overlap *= dv;
      for (std::size_t g = 0; g < ng; ++g) psi(g, j) -= overlap * psi(g, q);
    }
    double norm2 = 0.0;
    for (std::size_t g = 0; g < ng; ++g) norm2 += std::norm(psi(g, j));
    norm2 *= dv;
    const double inv = 1.0 / std::sqrt(norm2);
    for (std::size_t g = 0; g < ng; ++g) psi(g, j) *= inv;
  }
}

double orthonormality_error(const Matrix<cd>& psi, double dv) {
  const std::size_t no = psi.cols();
  Matrix<cd> s(no, no);
  gemm(Trans::kC, Trans::kN, cd(dv, 0.0), psi, psi, cd{}, s);
  double err = 0.0;
  for (std::size_t i = 0; i < no; ++i)
    for (std::size_t j = 0; j < no; ++j) {
      const double target = i == j ? 1.0 : 0.0;
      err = std::max(err, std::abs(s(i, j) - cd(target, 0.0)));
    }
  return err;
}

} // namespace mlmd::la
