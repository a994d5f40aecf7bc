#include "mlmd/nnq/md_driver.hpp"

#include <algorithm>

#include "mlmd/obs/trace.hpp"
#include "mlmd/nnq/optimizer.hpp"

namespace mlmd::nnq {

namespace {

/// Neighbor-list cutoff margin [Bohr]: pairs inside rc + kSkin stay listed
/// between rebuilds, so the potential is exactly continuous (energy
/// conservation does not depend on the rebuild cadence).
constexpr double kSkin = 1.5;
/// Atoms per block of model inference (Sec. V.B.9).
constexpr std::size_t kBlockSize = 4096;

qxmd::VerletOptions verlet_options(const MdOptions& opt) {
  qxmd::VerletOptions v;
  v.dt = opt.dt;
  v.thermostat = opt.langevin_kt < 0.0 ? qxmd::Thermostat::kNone
                                       : qxmd::Thermostat::kLangevin;
  v.target_kt = opt.langevin_kt;
  v.gamma = opt.langevin_gamma;
  v.seed = opt.seed;
  return v;
}

} // namespace

NnqmdDriver::NnqmdDriver(const AtomModel& gs, const AtomModel* xs,
                         qxmd::Atoms atoms, MdOptions opt)
    : gs_(gs), xs_(xs), atoms_(std::move(atoms)), opt_(opt),
      vv_([this](const qxmd::Atoms& a,
                 std::vector<double>& f) { return compute_forces(a, f); },
          atoms_, verlet_options(opt_)) {}

double NnqmdDriver::compute_forces(const qxmd::Atoms& atoms,
                                   std::vector<double>& f) {
  // The first call comes from vv_'s constructor and builds the list.
  // Later calls come from vv_.step(), which counts its step only once it
  // ends, so the step in flight is vv_.steps() + 1.
  if (!nl_ || (opt_.rebuild_every > 0 &&
               (vv_.steps() + 1) % opt_.rebuild_every == 0))
    nl_.emplace(atoms, gs_.basis().rc + kSkin);

  obs::ObsScope phase("nnq.forces", obs::Cat::kPhase);
  double e = gs_.energy_forces(atoms, *nl_, f, kBlockSize);
  if (xs_) {
    const double w = excitation_weight(n_exc_, opt_.n_sat);
    if (w > 0.0) {
      const double e_xs =
          xs_->energy_forces(atoms, *nl_, f_xs_, kBlockSize);
      for (std::size_t i = 0; i < f.size(); ++i)
        f[i] = (1.0 - w) * f[i] + w * f_xs_[i];
      e = (1.0 - w) * e + w * e_xs;
    }
  }
  return e;
}

double NnqmdDriver::step(double n_exc) {
  obs::ObsScope step_span("nnq.md_step", obs::Cat::kStep);
  n_exc_ = n_exc;
  const double epot = vv_.step(atoms_);
  if (frames_) frames_->push_back(atoms_.v);
  return epot;
}

Dataset make_lj_dataset(const qxmd::Atoms& base, const RadialBasis& basis,
                        const qxmd::LjParams& lj, std::size_t nconfigs,
                        double displacement, unsigned long long seed) {
  Dataset data;
  data.reserve(nconfigs);
  Rng rng(seed);
  std::vector<double> tmp_forces;
  for (std::size_t c = 0; c < nconfigs; ++c) {
    qxmd::Atoms atoms = base;
    for (auto& x : atoms.r) x += displacement * rng.normal();
    for (std::size_t i = 0; i < atoms.n(); ++i) atoms.box.wrap(atoms.pos(i));

    qxmd::NeighborList nl_ref(atoms, lj.rc);
    EnergySample sample;
    sample.energy = qxmd::lj_energy_forces(atoms, nl_ref, lj, tmp_forces);

    qxmd::NeighborList nl_desc(atoms, basis.rc);
    auto desc = atom_descriptors(atoms, nl_desc, basis);
    const std::size_t nb = basis.size();
    sample.features.reserve(atoms.n());
    for (std::size_t i = 0; i < atoms.n(); ++i)
      sample.features.emplace_back(desc.begin() + static_cast<std::ptrdiff_t>(i * nb),
                                   desc.begin() + static_cast<std::ptrdiff_t>((i + 1) * nb));
    data.push_back(std::move(sample));
  }
  return data;
}

double loss_sharpness(const Mlp& net, const Dataset& data, double rho,
                      int nsamples, unsigned long long seed) {
  Mlp probe = net;
  const double base_loss = energy_mse(net, data);
  Rng rng(seed);
  double worst = 0.0;
  for (int s = 0; s < nsamples; ++s) {
    // Random unit direction, scaled to rho.
    std::vector<double> dir(net.n_params());
    for (auto& d : dir) d = rng.normal();
    const double norm = grad_norm(dir) + 1e-300;
    auto& w = probe.params();
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = net.params()[i] + rho * dir[i] / norm;
    worst = std::max(worst, energy_mse(probe, data) - base_loss);
  }
  return worst;
}

} // namespace mlmd::nnq
