#include "mlmd/lfd/nlp_prop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mlmd/par/thread_pool.hpp"

namespace mlmd::lfd {
namespace {

template <class Real>
void gemm_dispatch(la::ComputeMode mode, la::Trans ta, la::Trans tb,
                   std::complex<Real> alpha, const la::Matrix<std::complex<Real>>& a,
                   const la::Matrix<std::complex<Real>>& b, std::complex<Real> beta,
                   la::Matrix<std::complex<Real>>& c) {
  if constexpr (std::is_same_v<Real, float>) {
    la::gemm_mixed(mode, ta, tb, alpha, a, b, beta, c);
  } else {
    if (mode != la::ComputeMode::kNative)
      throw std::invalid_argument("BF16 compute modes require FP32 storage");
    la::gemm(ta, tb, alpha, a, b, beta, c);
  }
}

} // namespace

template <class Real>
void nlp_prop(SoAWave<Real>& w, const la::Matrix<std::complex<Real>>& psi0,
              std::complex<double> delta, la::ComputeMode mode) {
  if (psi0.rows() != w.psi.rows() || psi0.cols() != w.psi.cols())
    throw std::invalid_argument("nlp_prop: psi0 shape mismatch");
  const auto no = w.norb;
  const Real dv = static_cast<Real>(w.grid.dv());

  // CGEMM(1): overlap S = Psi0^H Psi(t) * dv.
  la::Matrix<std::complex<Real>> s(no, no);
  gemm_dispatch<Real>(mode, la::Trans::kC, la::Trans::kN,
                      std::complex<Real>(dv, Real(0)), psi0, w.psi,
                      std::complex<Real>{}, s);

  // CGEMM(2): Psi(t) += delta * Psi0 * S.
  const std::complex<Real> dl(static_cast<Real>(delta.real()),
                              static_cast<Real>(delta.imag()));
  gemm_dispatch<Real>(mode, la::Trans::kN, la::Trans::kN, dl, psi0, s,
                      std::complex<Real>(Real(1), Real(0)), w.psi);

  renormalize(w);
}

template <class Real>
void renormalize(SoAWave<Real>& w) {
  std::vector<double> n2(w.norb, 0.0);
  for (std::size_t g = 0; g < w.grid.size(); ++g) {
    const auto* row = w.psi.row(g);
    for (std::size_t s = 0; s < w.norb; ++s)
      n2[s] += std::norm(std::complex<double>(row[s]));
  }
  const double dv = w.grid.dv();
  std::vector<Real> inv(w.norb);
  for (std::size_t s = 0; s < w.norb; ++s)
    inv[s] = static_cast<Real>(1.0 / std::sqrt(std::max(n2[s] * dv, 1e-300)));
  // Disjoint rows; one chunk covers >= 8192 (point, orbital) pairs.
  const std::size_t grain =
      std::max<std::size_t>(1, 8192 / std::max<std::size_t>(w.norb, 1));
  par::parallel_for(0, w.grid.size(), grain, [&](std::size_t g0, std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      auto* row = w.psi.row(g);
      for (std::size_t s = 0; s < w.norb; ++s) row[s] *= inv[s];
    }
  });
}

template void nlp_prop<float>(SoAWave<float>&, const la::Matrix<std::complex<float>>&,
                              std::complex<double>, la::ComputeMode);
template void nlp_prop<double>(SoAWave<double>&,
                               const la::Matrix<std::complex<double>>&,
                               std::complex<double>, la::ComputeMode);
template void renormalize<float>(SoAWave<float>&);
template void renormalize<double>(SoAWave<double>&);

} // namespace mlmd::lfd
