#pragma once
// Fully-connected network with manual forward/backward passes — the
// inference and training core of the XS-NNQMD module. No autograd
// framework: the architecture is fixed (affine layers + tanh hidden
// activations, linear output), so gradients w.r.t. both weights (for
// training) and inputs (for interatomic forces, F = -dE/dG . dG/dr) are
// coded analytically.
//
// Weights are stored flat so optimizers (Adam, SAM) treat the model as a
// single parameter vector — this is also what makes the paper's
// weight-count accounting (T2S per atom *per weight*, Table II) direct.

#include <cstddef>
#include <string>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/matrix.hpp"

namespace mlmd::nnq {

class Mlp {
public:
  /// sizes = {n_in, n_h1, ..., n_out}. Hidden activations are tanh; the
  /// output layer is linear.
  explicit Mlp(std::vector<std::size_t> sizes, unsigned long long seed = 1234);

  std::size_t n_in() const { return sizes_.front(); }
  std::size_t n_out() const { return sizes_.back(); }
  std::size_t n_params() const { return w_.size(); }

  std::vector<double>& params() { return w_; }
  const std::vector<double>& params() const { return w_; }
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  // ---- batched inference / training (the Table II hot path) -------------
  //
  // Every pass takes a whole batch of samples (rows of x). A row's result
  // depends only on its own input, bit for bit: each output of a layer is
  // reduced in ascending input order with one accumulator that starts
  // from the bias, the backward pass reduces in ascending output order
  // from zero, and the activation is the simd tanh (ukern_generic.hpp), so
  // the batched passes equal a per-sample loop — asserted in test_nnq
  // against the scalar passes kept there as the oracle — on every SIMD
  // target and at every thread count. forward_batch and
  // forward_backward_batch run one la::gemm per layer (the GEMM engine
  // keeps that order); grad_input_rows is the simd MLP kernel, with one
  // row per vector lane. Scratch comes from the thread-local Workspace
  // arena, so steady-state calls are allocation-free.

  /// y(s, :) = the network's outputs at row s of x, for every row s; y is
  /// resized to x.rows() x n_out().
  void forward_batch(const la::Matrix<double>& x, la::Matrix<double>& y) const;

  /// dy0_dx(s, :) = d y_0 / d x at row s of x, for every row s (resized to
  /// x.rows() x n_in()). If y is non-null it also receives the forward
  /// values (resized to x.rows() x n_out()) from the same pass.
  void grad_input_batch(const la::Matrix<double>& x, la::Matrix<double>& dy0_dx,
                        la::Matrix<double>* y = nullptr) const;

  /// The same pass on raw row-major storage: `nb` rows of n_in() inputs
  /// at x, gradients into dy0_dx (nb x n_in()), forward values into y
  /// (nb x n_out()) when non-null. grad_input_batch is this call on a
  /// Matrix. Safe to call concurrently on disjoint outputs, so callers
  /// can split one batch across pool chunks: a row's result does not
  /// depend on which rows share its call.
  void grad_input_rows(const double* x, std::size_t nb, double* dy0_dx,
                       double* y = nullptr) const;

  /// Training pass: accumulates dL/dw into `grad` (size n_params()) given
  /// per-row dL/dy (x.rows() x n_out()) and writes forward values into y.
  /// Sample contributions enter `grad` in ascending row order, matching a
  /// per-sample loop over rows bitwise.
  void forward_backward_batch(const la::Matrix<double>& x,
                              const la::Matrix<double>& dl_dy,
                              std::vector<double>& grad,
                              la::Matrix<double>& y) const;

  /// Serialize / deserialize (text format with layer sizes header).
  void save(const std::string& path) const;
  static Mlp load(const std::string& path);

private:
  struct LayerView {
    std::size_t w_off, b_off, in, out;
  };
  std::vector<LayerView> layers() const;

  std::vector<std::size_t> sizes_;
  std::vector<double> w_; ///< all weights then all biases, layer by layer
};

} // namespace mlmd::nnq
