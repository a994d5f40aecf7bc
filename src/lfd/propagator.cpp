#include "mlmd/lfd/propagator.hpp"

#include <cmath>

#include "mlmd/lfd/vloc.hpp"

namespace mlmd::lfd {
namespace {

template <class Real>
void s2(SoAWave<Real>& w, const std::vector<double>& vloc, const KinParams& kin,
        double dt, KinVariant variant) {
  KinParams k = kin;
  k.dt = dt;
  vloc_prop(w, vloc, 0.5 * dt);
  // The palindromic kinetic product keeps S2 exactly symmetric, which the
  // reversibility guarantee and the 4th-order composition both require.
  kin_prop_sym(w, k, variant);
  vloc_prop(w, vloc, 0.5 * dt);
}

} // namespace

template <class Real>
void split_step(SoAWave<Real>& w, const std::vector<double>& vloc,
                const KinParams& kin, PropOrder order, KinVariant variant) {
  if (order == PropOrder::kSecond) {
    s2(w, vloc, kin, kin.dt, variant);
    return;
  }
  // Suzuki-Yoshida 4th order: g1, g2 with g2 < 0 (the backward substep).
  const double g1 = 1.0 / (2.0 - std::cbrt(2.0));
  const double g2 = 1.0 - 2.0 * g1;
  s2(w, vloc, kin, g1 * kin.dt, variant);
  s2(w, vloc, kin, g2 * kin.dt, variant);
  s2(w, vloc, kin, g1 * kin.dt, variant);
}

template void split_step<float>(SoAWave<float>&, const std::vector<double>&,
                                const KinParams&, PropOrder, KinVariant);
template void split_step<double>(SoAWave<double>&, const std::vector<double>&,
                                 const KinParams&, PropOrder, KinVariant);

} // namespace mlmd::lfd
