#pragma once
// Training loop for NNQMD models: minibatch Adam on per-site energies,
// with optional sharpness-aware minimization (Allegro-Legato, Sec. V.A.6)
// and total-energy-alignment unification of multi-fidelity datasets
// (Allegro-FM / TEA, Sec. V.A.7 — the second kind of metamodel-space
// algebra: affine transforms along the fidelity axis).

#include <cstddef>
#include <vector>

#include "mlmd/ferro/lattice.hpp"
#include "mlmd/nnq/mlp.hpp"

namespace mlmd::nnq {

/// One training sample: per-site feature vectors and the reference total
/// energy of the configuration.
struct EnergySample {
  std::vector<std::vector<double>> features;
  double energy = 0.0;
};

using Dataset = std::vector<EnergySample>;

struct TrainOptions {
  int epochs = 60;
  double lr = 3e-3;
  double sam_rho = 0.0; ///< > 0 enables SAM (Legato training)
  unsigned long long seed = 21;
};

struct TrainHistory {
  std::vector<double> epoch_loss; ///< mean squared per-site energy error
};

/// Train `net` so that sum_site net(feature) matches sample energies.
/// Loss is normalized per site for conditioning.
TrainHistory train_energy(Mlp& net, const Dataset& data, TrainOptions opt = {});

/// Mean squared (per-site) energy error of a model on a dataset.
double energy_mse(const Mlp& net, const Dataset& data);

/// Per-dimension z-score normalization of feature vectors. Mixed
/// descriptor families (radial + angular channels) have wildly different
/// scales; training without standardization stalls on the
/// badly-conditioned directions.
struct FeatureScaler {
  std::vector<double> mean, inv_std;

  /// Fit to every feature vector in the dataset.
  static FeatureScaler fit(const Dataset& data);
  /// Transform a dataset in place.
  void apply(Dataset& data) const;
  /// Transform one feature vector in place (inference path).
  void apply(std::vector<double>& features) const;
};

/// Build a lattice-model dataset by sampling a FerroLattice with Langevin
/// dynamics at temperature kT: `nsamples` configurations separated by
/// `decorrelate` steps, labelled with the exact ferro energy. `excitation`
/// sets the uniform photo-excitation fraction (0 = ground state dataset,
/// > 0 = excited-state dataset for the XS model).
Dataset sample_ferro_dataset(std::size_t lx, std::size_t ly, double kT,
                             std::size_t nsamples, int decorrelate,
                             double excitation, unsigned long long seed,
                             const ferro::FerroParams& params = {});

// --- total energy alignment (TEA, Sec. V.A.7) -----------------------------

struct TeaTransform {
  double scale = 1.0;
  double shift = 0.0;
  double apply(double e) const { return scale * e + shift; }
};

/// Least-squares affine fit so that scale * e_src + shift ~= e_ref on
/// paired structures; aligns one fidelity's energy axis onto another's.
TeaTransform tea_fit(const std::vector<double>& e_src,
                     const std::vector<double>& e_ref);

/// Apply a TEA transform to every sample energy of a dataset (in place).
void tea_apply(Dataset& data, const TeaTransform& t);

/// Unify several datasets onto the fidelity axis of `reference` using
/// per-dataset TEA fits on the first `npair` samples (which must describe
/// the same structures across datasets). Returns the merged dataset.
Dataset tea_unify(const Dataset& reference, const std::vector<Dataset>& others,
                  std::size_t npair);

} // namespace mlmd::nnq
