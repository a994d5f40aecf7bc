#include "mlmd/nnq/allegro.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/obs/trace.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::nnq {

AtomModel::AtomModel(RadialBasis basis, std::vector<std::size_t> hidden,
                     unsigned long long seed, int ntypes)
    : basis_(std::move(basis)), net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(basis_.size() * static_cast<std::size_t>(ntypes));
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed),
      ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
}

AtomModel::AtomModel(RadialBasis basis, Mlp net, int ntypes)
    : basis_(std::move(basis)), net_(std::move(net)), ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
  if (net_.n_in() != basis_.size() * static_cast<std::size_t>(ntypes))
    throw std::invalid_argument("AtomModel: network input != basis*ntypes");
  if (net_.n_out() != 1)
    throw std::invalid_argument("AtomModel: network must be scalar-output");
}

AtomModel::AtomModel(RadialBasis basis, AngularBasis angular,
                     std::vector<std::size_t> hidden, unsigned long long seed,
                     int ntypes)
    : basis_(std::move(basis)), angular_(std::move(angular)), net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(basis_.size() * static_cast<std::size_t>(ntypes) +
                        angular_.size());
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed),
      ntypes_(ntypes) {
  if (ntypes < 1) throw std::invalid_argument("AtomModel: ntypes >= 1");
}

double AtomModel::energy_forces(const qxmd::Atoms& atoms,
                                const qxmd::NeighborList& nl,
                                std::vector<double>& forces,
                                std::size_t block_size) const {
  obs::ObsScope span("nnq.energy_forces", obs::Cat::kKernel);
  const std::size_t n = atoms.n();
  const std::size_t nb = basis_.size();
  const std::size_t nbt = nb * static_cast<std::size_t>(ntypes_);
  const std::size_t width = feature_width();
  forces.assign(3 * n, 0.0);
  peak_scratch_ = 0;
  if (n == 0) return 0.0;
  if (block_size == 0) block_size = n;

  double energy = 0.0;
  // dE/dG for every atom, filled block by block; the per-block scratch
  // (descriptors + pair cache of one batch) is what block inference bounds.
  std::vector<double> de_dg(n * width);
  std::vector<double> g(nb), dg(nb);
  // Block inference (Sec. V.B.9), GEMM-bound: descriptors for a whole
  // block are assembled into one feature matrix and pushed through the
  // network with Mlp::grad_input_batch (one gemm per layer) instead of
  // per-atom scalar passes. The batched pass is bitwise identical to the
  // per-atom one (gemm ascending-k contract), so block size still cannot
  // change results. While assembling descriptors we cache each surviving
  // pair's (j, displacement, r, dG/dr) so radial force assembly replays the
  // cache instead of re-evaluating the basis — the eval is the dominant
  // non-GEMM cost. All buffers are hoisted out of the block loop, so every
  // block after the first reuses their capacity.
  la::Matrix<double> feats, dedg_blk, y_blk;
  std::vector<std::size_t> pair_off, pair_j;
  std::vector<double> pair_geo; // 4 per pair: d0, d1, d2, r
  std::vector<double> pair_dg;  // nb per pair
  flops::add(12ull * nb * nl.pair_count());

  for (std::size_t b0 = 0; b0 < n; b0 += block_size) {
    const std::size_t b1 = std::min(b0 + block_size, n);
    const std::size_t bn = b1 - b0;
    feats.resize(bn, width);
    feats.fill(0.0);
    pair_off.assign(1, 0);
    pair_j.clear();
    pair_geo.clear();
    pair_dg.clear();
    for (std::size_t i = b0; i < b1; ++i) {
      double* feat = feats.row(i - b0);
      for (auto j : nl.neighbors(i)) {
        const auto d = atoms.box.mic(atoms.pos(i), atoms.pos(j));
        const double r = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
        if (r <= 0 || r >= basis_.rc) continue;
        basis_.eval(r, g, dg);
        const std::size_t ch =
            static_cast<std::size_t>(atoms.type[j] % ntypes_) * nb;
        for (std::size_t k = 0; k < nb; ++k) feat[ch + k] += g[k];
        pair_j.push_back(j);
        pair_geo.insert(pair_geo.end(), {d[0], d[1], d[2], r});
        pair_dg.insert(pair_dg.end(), dg.begin(), dg.end());
      }
      if (has_angular())
        angular_features_for_atom(atoms, nl, angular_, i, feat + nbt);
      pair_off.push_back(pair_j.size());
    }
    const std::size_t scratch =
        bn * width * sizeof(double) +
        pair_j.size() * (sizeof(std::size_t) + (4 + nb) * sizeof(double));
    peak_scratch_ = std::max(peak_scratch_, scratch);

    net_.grad_input_batch(feats, dedg_blk, &y_blk);
    for (std::size_t r = 0; r < bn; ++r) energy += y_blk(r, 0);
    std::copy(dedg_blk.data(), dedg_blk.data() + bn * width,
              de_dg.data() + b0 * width);

    // Radial force assembly: F_i -= dE_i/dG_ik * dG_ik/dr over the cached
    // pairs; each directed pair (i, j) moves both endpoints (Newton's
    // third law built in). Pair order matches the descriptor pass, so
    // results are independent of block size.
    for (std::size_t i = b0; i < b1; ++i) {
      const double* dedg_i = dedg_blk.data() + (i - b0) * width;
      for (std::size_t p = pair_off[i - b0]; p < pair_off[i - b0 + 1]; ++p) {
        const std::size_t j = pair_j[p];
        const double* geo = pair_geo.data() + 4 * p;
        const double* pdg = pair_dg.data() + nb * p;
        const std::size_t ch =
            static_cast<std::size_t>(atoms.type[j] % ntypes_) * nb;
        double c = 0.0;
        for (std::size_t k = 0; k < nb; ++k) c += dedg_i[ch + k] * pdg[k];
        // dr/dr_i = d/r (d = r_i - r_j).
        for (int k = 0; k < 3; ++k) {
          const double comp = c * geo[static_cast<std::size_t>(k)] / geo[3];
          forces[3 * i + static_cast<std::size_t>(k)] -= comp;
          forces[3 * j + static_cast<std::size_t>(k)] += comp;
        }
      }
    }
  }

  // Angular force contributions (three-body chain rule). Note: these now
  // accumulate after the radial terms instead of before; addition order
  // into `forces` changed once with this rewrite but remains fixed and
  // block-size independent.
  if (has_angular())
    angular_forces(atoms, nl, angular_, de_dg, width, nbt, forces);
  return energy;
}

LatticeModel::LatticeModel(std::vector<std::size_t> hidden, unsigned long long seed)
    : net_([&] {
        std::vector<std::size_t> sizes;
        sizes.push_back(kLatticeFeatures);
        for (auto h : hidden) sizes.push_back(h);
        sizes.push_back(1);
        return sizes;
      }(), seed) {}

double LatticeModel::energy(const ferro::FerroLattice& lat) const {
  // Batched inference over bounded cell blocks (x-major cell order), so
  // the feature matrix stays cache-sized however large the lattice is.
  // The per-cell energies are summed strictly in ascending cell order, so
  // the total is deterministic for any thread count.
  constexpr std::size_t kCellBlock = 8192;
  const std::size_t ly = lat.ly();
  const std::size_t ncell = lat.lx() * ly;
  double e = 0.0;
  la::Matrix<double> feats, y;
  for (std::size_t c0 = 0; c0 < ncell; c0 += kCellBlock) {
    const std::size_t c1 = std::min(c0 + kCellBlock, ncell);
    feats.resize(c1 - c0, kLatticeFeatures);
    for (std::size_t c = c0; c < c1; ++c)
      lattice_features(lat, c / ly, c % ly, feats.row(c - c0));
    net_.forward_batch(feats, y);
    for (std::size_t r = 0; r < c1 - c0; ++r) e += y(r, 0);
  }
  return e;
}

namespace {

/// Cells per inference chunk (DESIGN.md §7). A chunk's features,
/// activations and backprop (~150 KB for the 16-12-12-1 serve models)
/// stay in one core's cache; 8 serve lattices of 32² give 32 chunks, and
/// a lone 32² lattice still splits four ways.
constexpr std::size_t kInferGrain = 256;

/// Accumulate -dE/du into `f` for every cell of `lat`, reading cell c's
/// input gradient from dedg row c. Cells go strictly in ascending order,
/// so each f element sees the same chain of subtractions however the
/// gradients were batched.
void scatter_lattice_forces(const ferro::FerroLattice& lat, const double* dedg,
                            ferro::Vec3* f) {
  const std::size_t lx = lat.lx(), ly = lat.ly();
  for (std::size_t c = 0; c < lx * ly; ++c) {
    const std::size_t x = c / ly, y = c % ly;
    const std::size_t xp = (x + 1) % lx, xm = (x + lx - 1) % lx;
    const std::size_t yp = (y + 1) % ly, ym = (y + ly - 1) % ly;
    const double* gi = dedg + c * kLatticeFeatures;
    const ferro::Vec3 ui = lat.u(x, y);
    // Feature layout (descriptor.cpp): [u_i (3), |u_i|^2, u_xp (3),
    // u_xm (3), u_yp (3), u_ym (3)].
    auto& fi = f[lat.index(x, y)];
    for (int k = 0; k < 3; ++k)
      fi[static_cast<std::size_t>(k)] -=
          gi[static_cast<std::size_t>(k)] +
          2.0 * gi[3] * ui[static_cast<std::size_t>(k)];
    const std::size_t nbr[4] = {lat.index(xp, y), lat.index(xm, y),
                                lat.index(x, yp), lat.index(x, ym)};
    for (int nbi = 0; nbi < 4; ++nbi)
      for (int k = 0; k < 3; ++k)
        f[nbr[nbi]][static_cast<std::size_t>(k)] -=
            gi[4 + static_cast<std::size_t>(nbi) * 3 + static_cast<std::size_t>(k)];
  }
}

/// The one lattice-force path (DESIGN.md §7). out[s] receives the forces
/// -dE/du of lats[s] under `gs`, or, when `xs` is non-null, the Eq. (4)
/// mix (1 - w[s]) F_GS + w[s] F_XS. Launch 1 (nnq.infer) runs chunks of at
/// most kInferGrain cells of one lattice through both networks; launch 2
/// (nnq.scatter) scatters and mixes one lattice per chunk. A row's
/// gradient does not depend on its batch (mlp.hpp) and each lattice's
/// scatter is serial, so out is bit-identical at every thread count.
void lattice_forces(const Mlp& gs, const Mlp* xs,
                    std::span<const ferro::FerroLattice* const> lats,
                    const double* w, std::vector<ferro::Vec3>* out) {
  for (const Mlp* net : {&gs, xs})
    if (net && (net->n_in() != kLatticeFeatures || net->n_out() < 1))
      throw std::invalid_argument("lattice forces: network is not 16 -> scalar");
  constexpr std::size_t nf = kLatticeFeatures;
  const std::size_t n = lats.size();
  // The launching thread's arena owns the tables and the gradient rows
  // for the whole call; chunks only read the tables and write disjoint rows.
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  std::size_t* cell_off = ws.get<std::size_t>(n + 1);
  std::size_t* chunk_off = ws.get<std::size_t>(n + 1);
  cell_off[0] = chunk_off[0] = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t nc = lats[s]->ncells();
    cell_off[s + 1] = cell_off[s] + nc;
    chunk_off[s + 1] = chunk_off[s] + (nc + kInferGrain - 1) / kInferGrain;
  }
  double* dedg_gs = ws.get<double>(cell_off[n] * nf);
  double* dedg_xs = xs ? ws.get<double>(cell_off[n] * nf) : nullptr;

  {
    obs::ObsScope span("nnq.infer", obs::Cat::kPhase);
    par::parallel_for(0, chunk_off[n], 1, [&](std::size_t k0, std::size_t k1) {
      common::Workspace& lws = common::Workspace::local();
      for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t s = static_cast<std::size_t>(
            std::upper_bound(chunk_off, chunk_off + n + 1, k) - chunk_off - 1);
        const ferro::FerroLattice& lat = *lats[s];
        const std::size_t c0 = (k - chunk_off[s]) * kInferGrain;
        const std::size_t c1 = std::min(c0 + kInferGrain, lat.ncells());
        const std::size_t row0 = (cell_off[s] + c0) * nf;
        common::Workspace::Frame chunk_frame(lws);
        double* feats = lws.get<double>((c1 - c0) * nf);
        for (std::size_t c = c0; c < c1; ++c)
          lattice_features(lat, c / lat.ly(), c % lat.ly(), feats + (c - c0) * nf);
        gs.grad_input_rows(feats, c1 - c0, dedg_gs + row0);
        if (xs) xs->grad_input_rows(feats, c1 - c0, dedg_xs + row0);
      }
    });
  }

  obs::ObsScope span("nnq.scatter", obs::Cat::kPhase);
  for (std::size_t s = 0; s < n; ++s)
    out[s].assign(lats[s]->ncells(), ferro::Vec3{0, 0, 0});
  par::parallel_for(0, n, 1, [&](std::size_t s0, std::size_t s1) {
    common::Workspace& lws = common::Workspace::local();
    for (std::size_t s = s0; s < s1; ++s) {
      const ferro::FerroLattice& lat = *lats[s];
      auto& fg = out[s];
      scatter_lattice_forces(lat, dedg_gs + cell_off[s] * nf, fg.data());
      if (!xs) continue;
      common::Workspace::Frame lattice_frame(lws);
      ferro::Vec3* fx = lws.get<ferro::Vec3>(fg.size());
      std::fill(fx, fx + fg.size(), ferro::Vec3{0, 0, 0});
      scatter_lattice_forces(lat, dedg_xs + cell_off[s] * nf, fx);
      const double wt = w[s];
      for (std::size_t i = 0; i < fg.size(); ++i)
        for (std::size_t k = 0; k < 3; ++k)
          fg[i][k] = (1.0 - wt) * fg[i][k] + wt * fx[i][k];
    }
  });
}

} // namespace

std::vector<ferro::Vec3> LatticeModel::forces(const ferro::FerroLattice& lat) const {
  const ferro::FerroLattice* one = &lat;
  std::vector<ferro::Vec3> f;
  lattice_forces(net_, nullptr, {&one, 1}, nullptr, &f);
  return f;
}

double excitation_weight(double n_exc, double n_sat) {
  if (n_sat <= 0) return 0.0;
  return std::min(1.0, std::max(0.0, n_exc / n_sat));
}

std::vector<ferro::Vec3> xs_mixed_forces(const LatticeModel& gs,
                                         const LatticeModel& xs,
                                         const ferro::FerroLattice& lat,
                                         double n_exc, double n_sat) {
  const double w = excitation_weight(n_exc, n_sat);
  const ferro::FerroLattice* one = &lat;
  std::vector<ferro::Vec3> f;
  lattice_forces(gs.net(), &xs.net(), {&one, 1}, &w, &f);
  return f;
}

std::vector<std::vector<ferro::Vec3>> xs_mixed_forces_multi(
    const LatticeModel& gs, const LatticeModel& xs,
    const std::vector<const ferro::FerroLattice*>& lats,
    const std::vector<double>& n_exc, const std::vector<double>& n_sat) {
  if (n_exc.size() != lats.size() || n_sat.size() != lats.size())
    throw std::invalid_argument("xs_mixed_forces_multi: size mismatch");
  std::vector<double> w(lats.size());
  for (std::size_t s = 0; s < lats.size(); ++s)
    w[s] = excitation_weight(n_exc[s], n_sat[s]);
  std::vector<std::vector<ferro::Vec3>> f(lats.size());
  lattice_forces(gs.net(), &xs.net(), lats, w.data(), f.data());
  return f;
}

} // namespace mlmd::nnq
