#include "mlmd/nnq/train.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "mlmd/common/rng.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/nnq/optimizer.hpp"

namespace mlmd::nnq {
namespace {

constexpr std::size_t kBatch = 8; ///< samples per Adam step

/// Pack a sample's per-site feature vectors into one batch matrix.
void pack_features(const EnergySample& s, la::Matrix<double>& feats) {
  const std::size_t nsite = s.features.size();
  feats.resize(nsite, nsite ? s.features[0].size() : 0);
  for (std::size_t r = 0; r < nsite; ++r)
    std::copy(s.features[r].begin(), s.features[r].end(), feats.row(r));
}

/// Batched prediction: sum of site outputs in ascending site order —
/// bitwise what the old per-site net.value() loop produced.
double predict(const Mlp& net, const la::Matrix<double>& feats,
               la::Matrix<double>& y) {
  net.forward_batch(feats, y);
  double pred = 0.0;
  for (std::size_t r = 0; r < y.rows(); ++r) pred += y(r, 0);
  return pred;
}

/// dL/dw of the per-site-normalized squared energy error for one sample.
/// Returns the squared error contribution.
double sample_grad(const Mlp& net, const EnergySample& s, std::vector<double>& grad) {
  const double ns = static_cast<double>(s.features.size());
  la::Matrix<double> feats, y;
  pack_features(s, feats);
  const double pred = predict(net, feats, y);
  const double err = (pred - s.energy) / ns; // per-site error
  // dL/dpred_site = 2 * err / ns per site (pred = sum of site outputs).
  la::Matrix<double> dl_dy(s.features.size(), 1, 2.0 * err / ns);
  net.forward_backward_batch(feats, dl_dy, grad, y);
  return err * err;
}

} // namespace

double energy_mse(const Mlp& net, const Dataset& data) {
  double mse = 0.0;
  la::Matrix<double> feats, y;
  for (const auto& s : data) {
    pack_features(s, feats);
    const double pred = predict(net, feats, y);
    const double err = (pred - s.energy) / static_cast<double>(s.features.size());
    mse += err * err;
  }
  return data.empty() ? 0.0 : mse / static_cast<double>(data.size());
}

FeatureScaler FeatureScaler::fit(const Dataset& data) {
  FeatureScaler sc;
  if (data.empty() || data[0].features.empty()) return sc;
  const std::size_t dim = data[0].features[0].size();
  sc.mean.assign(dim, 0.0);
  std::vector<double> m2(dim, 0.0);
  std::size_t count = 0;
  for (const auto& s : data)
    for (const auto& f : s.features) {
      ++count;
      for (std::size_t k = 0; k < dim; ++k) {
        sc.mean[k] += f[k];
        m2[k] += f[k] * f[k];
      }
    }
  sc.inv_std.assign(dim, 1.0);
  for (std::size_t k = 0; k < dim; ++k) {
    sc.mean[k] /= static_cast<double>(count);
    const double var = m2[k] / static_cast<double>(count) - sc.mean[k] * sc.mean[k];
    sc.inv_std[k] = var > 1e-20 ? 1.0 / std::sqrt(var) : 1.0;
  }
  return sc;
}

void FeatureScaler::apply(std::vector<double>& features) const {
  for (std::size_t k = 0; k < features.size() && k < mean.size(); ++k)
    features[k] = (features[k] - mean[k]) * inv_std[k];
}

void FeatureScaler::apply(Dataset& data) const {
  for (auto& s : data)
    for (auto& f : s.features) apply(f);
}

TrainHistory train_energy(Mlp& net, const Dataset& data, TrainOptions opt) {
  if (data.empty()) throw std::invalid_argument("train_energy: empty dataset");
  Adam adam(net.n_params(), opt.lr);
  Rng rng(opt.seed);
  TrainHistory hist;

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic Rng.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);

    double epoch_loss = 0.0;
    for (std::size_t b0 = 0; b0 < order.size(); b0 += kBatch) {
      const std::size_t b1 = std::min(b0 + kBatch, order.size());
      std::vector<double> grad(net.n_params(), 0.0);
      for (std::size_t k = b0; k < b1; ++k)
        epoch_loss += sample_grad(net, data[order[k]], grad);
      const double inv_b = 1.0 / static_cast<double>(b1 - b0);
      for (double& g : grad) g *= inv_b;

      if (opt.sam_rho > 0.0) {
        // SAM: re-evaluate the gradient at the ascent-perturbed weights.
        auto disp = sam_perturb(net.params(), grad, opt.sam_rho);
        std::vector<double> grad2(net.n_params(), 0.0);
        for (std::size_t k = b0; k < b1; ++k)
          sample_grad(net, data[order[k]], grad2);
        for (double& g : grad2) g *= inv_b;
        for (std::size_t i = 0; i < disp.size(); ++i) net.params()[i] -= disp[i];
        adam.step(net.params(), grad2);
      } else {
        adam.step(net.params(), grad);
      }
    }
    hist.epoch_loss.push_back(epoch_loss / static_cast<double>(data.size()));
  }
  return hist;
}

Dataset sample_ferro_dataset(std::size_t lx, std::size_t ly, double kT,
                             std::size_t nsamples, int decorrelate,
                             double excitation, unsigned long long seed,
                             const ferro::FerroParams& params) {
  ferro::FerroLattice lat(lx, ly, params);
  lat.set_uniform_excitation(excitation);
  // Start from a weakly-random polarized state and equilibrate.
  Rng rng(seed);
  const double amp = std::max(lat.well_amplitude(), 0.3);
  for (std::size_t x = 0; x < lx; ++x)
    for (std::size_t y = 0; y < ly; ++y)
      lat.set_u(x, y, {0.2 * amp * rng.normal(), 0.2 * amp * rng.normal(),
                       amp * (rng.uniform() < 0.5 ? -1.0 : 1.0) +
                           0.1 * amp * rng.normal()});
  for (int i = 0; i < 200; ++i) lat.step_langevin(kT, rng);

  Dataset data;
  data.reserve(nsamples);
  std::vector<double> feat;
  for (std::size_t s = 0; s < nsamples; ++s) {
    for (int i = 0; i < decorrelate; ++i) lat.step_langevin(kT, rng);
    EnergySample sample;
    sample.features.reserve(lat.ncells());
    for (std::size_t x = 0; x < lx; ++x)
      for (std::size_t y = 0; y < ly; ++y) {
        lattice_features(lat, x, y, feat);
        sample.features.push_back(feat);
      }
    sample.energy = lat.energy();
    data.push_back(std::move(sample));
  }
  return data;
}

TeaTransform tea_fit(const std::vector<double>& e_src,
                     const std::vector<double>& e_ref) {
  if (e_src.size() != e_ref.size() || e_src.size() < 2)
    throw std::invalid_argument("tea_fit: need >= 2 paired energies");
  const double n = static_cast<double>(e_src.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < e_src.size(); ++i) {
    sx += e_src[i];
    sy += e_ref[i];
    sxx += e_src[i] * e_src[i];
    sxy += e_src[i] * e_ref[i];
  }
  const double den = n * sxx - sx * sx;
  TeaTransform t;
  if (std::abs(den) < 1e-30) {
    t.scale = 1.0;
    t.shift = (sy - sx) / n;
  } else {
    t.scale = (n * sxy - sx * sy) / den;
    t.shift = (sy - t.scale * sx) / n;
  }
  return t;
}

void tea_apply(Dataset& data, const TeaTransform& t) {
  for (auto& s : data) s.energy = t.apply(s.energy);
}

Dataset tea_unify(const Dataset& reference, const std::vector<Dataset>& others,
                  std::size_t npair) {
  Dataset merged = reference;
  std::vector<double> e_ref;
  for (std::size_t i = 0; i < std::min(npair, reference.size()); ++i)
    e_ref.push_back(reference[i].energy);
  for (const auto& d : others) {
    std::vector<double> e_src;
    for (std::size_t i = 0; i < std::min(npair, d.size()); ++i)
      e_src.push_back(d[i].energy);
    const auto t = tea_fit(e_src, e_ref);
    Dataset aligned = d;
    tea_apply(aligned, t);
    // Paired structures are duplicates of the reference; keep the rest.
    for (std::size_t i = npair; i < aligned.size(); ++i)
      merged.push_back(std::move(aligned[i]));
  }
  return merged;
}

} // namespace mlmd::nnq
