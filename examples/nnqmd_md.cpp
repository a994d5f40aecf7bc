// End-to-end atomistic NNQMD workflow: generate reference (LJ) training
// data, train an Allegro-style potential on energies, run NVE MD with the
// trained potential, and compare against reference-MD observables
// including the vibrational density of states (the paper's Sec. V.A.6
// spectroscopic validation, at laptop scale).
//
// Run: ./nnqmd_md [--n=3] [--epochs=150] [--md_steps=300]

#include <cstdio>

#include "mlmd/analysis/spectrum.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/nnq/md_driver.hpp"
#include "mlmd/qxmd/verlet.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  if (!cli.check_known({"n", "md_steps", "kt", "epochs", "dt"},
                       "usage: nnqmd_md [--n=N] [--md_steps=N] [--kt=X] "
                       "[--epochs=N] [--dt=X]"))
    return 1;
  const auto n = static_cast<std::size_t>(cli.integer("n", 3));
  const int md_steps = static_cast<int>(cli.integer("md_steps", 300));

  auto base = qxmd::make_cubic_lattice(n, n, n, 4.6, 200.0);
  auto basis = nnq::RadialBasis::make(8, 1.5, 7.0, 1.0);
  qxmd::LjParams lj;
  lj.epsilon = 0.01;
  lj.sigma = 3.8;
  lj.rc = 8.0;

  // Training coverage must bracket the MD's thermal displacements, or the
  // model extrapolates and the run blows up — the fidelity-scaling
  // failure mode of Sec. V.A.6, here avoided by data coverage rather
  // than SAM.
  const double kt = cli.real("kt", 0.001);
  std::printf("# building LJ reference dataset (%zu atoms/config)...\n", base.n());
  auto data = nnq::make_lj_dataset(base, basis, lj, 80, 0.25, 77);

  nnq::Mlp net({basis.size(), 24, 16, 1}, 31);
  nnq::TrainOptions topt;
  topt.epochs = static_cast<int>(cli.integer("epochs", 200));
  topt.lr = 2e-3;
  auto hist = nnq::train_energy(net, data, topt);
  std::printf("# training: per-site MSE %.3e -> %.3e over %d epochs\n",
              hist.epoch_loss.front(), hist.epoch_loss.back(), topt.epochs);

  nnq::AtomModel model(basis, std::move(net));

  // Thermostatted MD with the trained potential vs the LJ reference.
  auto atoms_nn = base;
  qxmd::thermalize(atoms_nn, kt, 5);
  auto atoms_ref = atoms_nn;

  nnq::MdOptions mopt;
  mopt.dt = cli.real("dt", 6.0);
  mopt.langevin_kt = kt;
  mopt.langevin_gamma = 2e-3;
  nnq::NnqmdDriver driver(model, nullptr, atoms_nn, mopt);
  std::vector<std::vector<double>> frames_nn;
  driver.record_velocities(&frames_nn);

  auto lj_forces = [&](const qxmd::Atoms& a, std::vector<double>& f) {
    qxmd::NeighborList nl(a, lj.rc);
    return qxmd::lj_energy_forces(a, nl, lj, f);
  };
  qxmd::VerletOptions vopt;
  vopt.dt = mopt.dt;
  vopt.thermostat = qxmd::Thermostat::kLangevin;
  vopt.target_kt = kt;
  vopt.gamma = 2e-3;
  qxmd::VelocityVerlet ref(lj_forces, atoms_ref, vopt);
  std::vector<std::vector<double>> frames_ref;

  double t_nn = 0, t_ref = 0;
  for (int s = 0; s < md_steps; ++s) {
    driver.step();
    ref.step(atoms_ref);
    frames_ref.push_back(atoms_ref.v);
    if (s >= md_steps / 2) {
      t_nn += driver.atoms().temperature();
      t_ref += atoms_ref.temperature();
    }
  }
  std::printf("# mean temperature: NN %.5f vs LJ %.5f (target %.5f Ha)\n",
              t_nn / (md_steps / 2), t_ref / (md_steps / 2), kt);

  const auto max_lag = static_cast<std::size_t>(md_steps / 3);
  auto dos_nn = analysis::vibrational_dos(frames_nn, mopt.dt, max_lag);
  auto dos_ref = analysis::vibrational_dos(frames_ref, mopt.dt, max_lag);
  std::printf("# vibrational DOS peak: NN %.4e vs LJ reference %.4e [1/a.u.]\n",
              analysis::dominant_frequency(dos_nn),
              analysis::dominant_frequency(dos_ref));
  std::printf("# (energy-trained potential: expect matching peak region, "
              "not line-perfect intensities)\n");
  return 0;
}
