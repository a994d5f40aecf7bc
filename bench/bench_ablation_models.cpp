// Descriptor ablation (the accuracy side of the paper's Allegro claim):
// train a radial-only model and a radial+angular (three-body) model on a
// ground truth with genuine three-body physics (LJ pair + Keating angular
// term) and compare held-out energy errors. The angular channels should
// capture what no pair fingerprint can.
//
// Also reports the propagator ablation: wall cost of S2 vs S4 composite
// steps against their accuracy at equal step count.

#include <cmath>
#include <cstdio>

#include "mlmd/common/cli.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/lfd/propagator.hpp"
#include "mlmd/lfd/vloc.hpp"
#include "mlmd/nnq/md_driver.hpp"
#include "mlmd/qxmd/three_body.hpp"

namespace {

using namespace mlmd;

/// Dataset of bond-length-preserving angular distortions: a central atom
/// with 4 neighbours at FIXED distance r0 in random directions, labelled
/// by the three-body energy restricted to centre-apex triplets. The
/// centre's radial fingerprint is constant by construction — the energy
/// variance is carried by angles alone, the failure mode of pair
/// fingerprints (Pozdnyakov et al.'s degenerate-environment problem at
/// its simplest).
nnq::Dataset make_angle_dataset(const nnq::RadialBasis& rb,
                                const nnq::AngularBasis* ab,
                                const qxmd::ThreeBodyParams& tb,
                                std::size_t nconfigs, unsigned long long seed) {
  nnq::Dataset data;
  mlmd::Rng rng(seed);
  const double r0 = 3.0;
  const std::size_t nb = rb.size();
  const std::size_t width = nb + (ab ? ab->size() : 0);
  for (std::size_t c = 0; c < nconfigs; ++c) {
    qxmd::Atoms atoms;
    atoms.resize(5);
    atoms.box = {60, 60, 60};
    atoms.pos(0)[0] = atoms.pos(0)[1] = atoms.pos(0)[2] = 30.0;
    // Random apex directions with pairwise angles kept wide (cos < 0.3),
    // so every apex-apex distance exceeds the descriptor cutoff below:
    // the radial fingerprints of ALL atoms are then constant across the
    // dataset and only angular channels can see the label.
    std::vector<std::array<double, 3>> dirs;
    while (dirs.size() < 4) {
      double u[3] = {rng.normal(), rng.normal(), rng.normal()};
      const double un = std::sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2]);
      if (un < 1e-12) continue;
      std::array<double, 3> d{u[0] / un, u[1] / un, u[2] / un};
      bool ok = true;
      for (const auto& e : dirs)
        if (d[0] * e[0] + d[1] * e[1] + d[2] * e[2] > 0.3) ok = false;
      if (ok) dirs.push_back(d);
    }
    for (std::size_t a = 1; a < 5; ++a)
      for (int k = 0; k < 3; ++k)
        atoms.pos(a)[k] = 30.0 + r0 * dirs[a - 1][static_cast<std::size_t>(k)];
    // Cutoff covers only centre-apex bonds (neighbour-neighbour distances
    // reach 2*r0): the label is the pure angular energy at the centre.
    qxmd::ThreeBodyParams tb_local = tb;
    tb_local.rc = 1.3 * r0;
    qxmd::NeighborList nl(atoms, tb_local.rc);
    std::vector<double> f3(15, 0.0);
    nnq::EnergySample s;
    s.energy = qxmd::three_body_energy_forces(atoms, nl, tb_local, f3);

    qxmd::NeighborList nld(atoms, rb.rc);
    auto rad = nnq::atom_descriptors(atoms, nld, rb);
    std::vector<double> full(atoms.n() * width, 0.0);
    for (std::size_t i = 0; i < atoms.n(); ++i)
      for (std::size_t k = 0; k < nb; ++k) full[i * width + k] = rad[i * nb + k];
    if (ab) nnq::angular_descriptors(atoms, nld, *ab, full, width, nb);
    for (std::size_t i = 0; i < atoms.n(); ++i)
      s.features.emplace_back(full.begin() + static_cast<std::ptrdiff_t>(i * width),
                              full.begin() + static_cast<std::ptrdiff_t>((i + 1) * width));
    data.push_back(std::move(s));
  }
  return data;
}

} // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (!cli.check_known({"epochs", "k3"},
                       "usage: bench_ablation_models [--epochs=N] [--k3=X]"))
    return 1;
  const int epochs = static_cast<int>(cli.integer("epochs", 300));

  // Descriptor cutoff 3.5 Bohr: covers the centre-apex bonds (3.0) but no
  // apex-apex pair (all > 3.55 by the cos < 0.3 rejection above).
  auto rb = nnq::RadialBasis::make(8, 1.5, 3.5, 1.0);
  auto ab = nnq::AngularBasis::make(2, 3.5, 0.05);
  qxmd::ThreeBodyParams tb;
  tb.k3 = cli.real("k3", 0.3);

  std::printf("# descriptor ablation: bond-preserving angular distortions\n");
  auto train_r = make_angle_dataset(rb, nullptr, tb, 80, 11);
  auto test_r = make_angle_dataset(rb, nullptr, tb, 20, 12);
  auto train_a = make_angle_dataset(rb, &ab, tb, 80, 11);
  auto test_a = make_angle_dataset(rb, &ab, tb, 20, 12);

  // z-score feature standardization (fit on train, applied to test).
  auto sc_r = nnq::FeatureScaler::fit(train_r);
  sc_r.apply(train_r);
  sc_r.apply(test_r);
  auto sc_a = nnq::FeatureScaler::fit(train_a);
  sc_a.apply(train_a);
  sc_a.apply(test_a);

  nnq::TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = 2e-3;

  nnq::Mlp net_r({rb.size(), 24, 16, 1}, 31);
  nnq::train_energy(net_r, train_r, topt);
  const double mse_r = nnq::energy_mse(net_r, test_r);

  nnq::Mlp net_a({rb.size() + ab.size(), 24, 16, 1}, 31);
  nnq::train_energy(net_a, train_a, topt);
  const double mse_a = nnq::energy_mse(net_a, test_a);

  std::printf("%-28s %-14s\n", "Model", "test MSE/site");
  std::printf("%-28s %-14.4e\n", "radial only", mse_r);
  std::printf("%-28s %-14.4e\n", "radial + angular (G4)", mse_a);
  std::printf("# angular channels reduce held-out error %.1fx\n", mse_r / mse_a);

  // --- propagator ablation: S2 vs S4 ------------------------------------
  grid::Grid3 g{8, 8, 8, 0.6, 0.6, 0.6};
  auto vloc = lfd::ionic_potential(
      g, {{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.5, 2.0}});
  auto make_wave = [&] {
    lfd::SoAWave<double> w(g, 8);
    lfd::init_plane_waves(w);
    return w;
  };
  auto ref = make_wave();
  {
    lfd::KinParams k;
    k.dt = 0.4 / 1024;
    for (int i = 0; i < 1024; ++i)
      lfd::split_step(ref, vloc, k, lfd::PropOrder::kSecond);
  }
  std::printf("\n# propagator ablation (0.4 a.u. in 16 steps):\n");
  std::printf("%-10s %-12s %-12s\n", "order", "seconds", "error");
  for (auto order : {lfd::PropOrder::kSecond, lfd::PropOrder::kFourth}) {
    auto w = make_wave();
    lfd::KinParams k;
    k.dt = 0.4 / 16;
    Timer t;
    for (int i = 0; i < 16; ++i) lfd::split_step(w, vloc, k, order);
    std::printf("%-10s %-12.4f %-12.3e\n",
                order == lfd::PropOrder::kSecond ? "S2" : "S4", t.seconds(),
                la::max_abs_diff(w.psi, ref.psi));
  }
  std::printf("# expected: S4 ~3x cost, orders-of-magnitude lower error\n");
  return 0;
}
