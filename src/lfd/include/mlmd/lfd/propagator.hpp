#pragma once
// Composite split-operator propagators for exp(-i dt (T + v_loc))
// (paper Sec. V.A.5: "self-consistent, time-reversible unitary approach"
// [43]). The second-order symmetric step
//
//   S2(dt) = e^{-i dt v/2} e^{-i dt T} e^{-i dt v/2}
//
// is exactly unitary and time-reversible (S2(-dt) = S2(dt)^{-1}); the
// fourth-order Suzuki-Yoshida composition
//
//   S4(dt) = S2(g1 dt) S2(g2 dt) S2(g1 dt),  g1 = 1/(2 - 2^(1/3)),
//                                            g2 = 1 - 2 g1  (negative)
//
// trades 3x the work for two orders in accuracy. The self-consistent
// nonlinearity (Sec. V.A.5 "the time-propagation operator itself depends
// on the wave functions being propagated") is handled by the caller:
// LfdDomain::qd_step refreshes the potential from the DSA Hartree field
// between fixed-potential steps.

#include <vector>

#include "mlmd/lfd/kin_prop.hpp"
#include "mlmd/lfd/wavefunction.hpp"

namespace mlmd::lfd {

enum class PropOrder { kSecond, kFourth };

/// One composite step with a FIXED local potential. Exactly unitary.
template <class Real>
void split_step(SoAWave<Real>& w, const std::vector<double>& vloc,
                const KinParams& kin, PropOrder order = PropOrder::kSecond,
                KinVariant variant = KinVariant::kParallel);

extern template void split_step<float>(SoAWave<float>&, const std::vector<double>&,
                                       const KinParams&, PropOrder, KinVariant);
extern template void split_step<double>(SoAWave<double>&, const std::vector<double>&,
                                        const KinParams&, PropOrder, KinVariant);

} // namespace mlmd::lfd
