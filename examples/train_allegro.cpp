// Training demo for the NNQMD stack: build ground-state and excited-state
// datasets from the second-principles ferroelectric Hamiltonian, unify a
// shifted-fidelity dataset with TEA (Allegro-FM, paper Sec. V.A.7), train
// GS and XS lattice models (optionally with SAM -> Allegro-Legato,
// Sec. V.A.6), and verify the force mixing of Eq. (4).
//
// Run: ./train_allegro [--lattice=10] [--epochs=40] [--sam=0.05]

#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/train.hpp"

int main(int argc, char** argv) {
  using namespace mlmd;
  Cli cli(argc, argv);
  const auto L = static_cast<std::size_t>(cli.integer("lattice", 10));
  nnq::TrainOptions topt;
  topt.epochs = static_cast<int>(cli.integer("epochs", 40));
  topt.sam_rho = cli.real("sam", 0.0);

  std::printf("# sampling GS and XS datasets on a %zux%zu ferro lattice...\n", L, L);
  auto gs_data = nnq::sample_ferro_dataset(L, L, 0.05, 24, 10, 0.0, 101);
  auto xs_data = nnq::sample_ferro_dataset(L, L, 0.05, 24, 10, 0.45, 202);

  // A second "fidelity" of the GS data: same structures, energies on a
  // shifted+scaled axis (as different xc functionals would give). TEA
  // must recover the affine map before the datasets can be merged.
  auto gs_shifted = gs_data;
  for (auto& s : gs_shifted) s.energy = 1.12 * s.energy - 7.0;
  std::vector<double> e_src, e_ref;
  for (std::size_t i = 0; i < 12; ++i) {
    e_src.push_back(gs_shifted[i].energy);
    e_ref.push_back(gs_data[i].energy);
  }
  const auto tea = nnq::tea_fit(e_src, e_ref);
  std::printf("# TEA fit: scale %.4f (true 1/1.12 = %.4f), shift %.3f\n",
              tea.scale, 1.0 / 1.12, tea.shift);
  auto unified = nnq::tea_unify(gs_data, {gs_shifted}, 12);
  std::printf("# unified dataset: %zu samples\n", unified.size());

  nnq::LatticeModel gs({24, 24}), xs({24, 24}, /*seed=*/31);
  std::printf("# GS model: %zu weights; training %d epochs (sam_rho=%.3f)\n",
              gs.n_weights(), topt.epochs, topt.sam_rho);
  auto h1 = nnq::train_energy(gs.net(), unified, topt);
  topt.seed = 77;
  auto h2 = nnq::train_energy(xs.net(), xs_data, topt);
  std::printf("# GS loss: %.4e -> %.4e | XS loss: %.4e -> %.4e\n",
              h1.epoch_loss.front(), h1.epoch_loss.back(), h2.epoch_loss.front(),
              h2.epoch_loss.back());

  // Eq. (4) sanity: mixed forces interpolate between the two models.
  ferro::FerroLattice lat(L, L);
  lat.set_uniform_excitation(0.0);
  lat.set_u_cells(std::vector<ferro::Vec3>(lat.ncells(), {0.05, -0.02, 0.7}));
  auto f0 = nnq::xs_mixed_forces(gs, xs, lat, /*n_exc=*/0.0, /*n_sat=*/1.0);
  auto f1 = nnq::xs_mixed_forces(gs, xs, lat, /*n_exc=*/2.0, /*n_sat=*/1.0);
  auto fg = gs.forces(lat);
  auto fx = xs.forces(lat);
  std::printf("# Eq. (4) check at cell 0: w=0 -> (%.4f vs GS %.4f), "
              "w=1 -> (%.4f vs XS %.4f)\n",
              f0[0][2], fg[0][2], f1[0][2], fx[0][2]);

  if (cli.has("save")) {
    gs.net().save(cli.str("save"));
    std::printf("# saved GS model to %s\n", cli.str("save").c_str());
  }
  return 0;
}
