#include "mlmd/nnq/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/workspace.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::nnq {

Mlp::Mlp(std::vector<std::size_t> sizes, unsigned long long seed)
    : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need >= 2 layers");
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l)
    total += sizes_[l] * sizes_[l + 1] + sizes_[l + 1];
  w_.resize(total);
  Rng rng(seed);
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const double scale = std::sqrt(2.0 / static_cast<double>(sizes_[l] + sizes_[l + 1]));
    for (std::size_t i = 0; i < sizes_[l] * sizes_[l + 1]; ++i)
      w_[off++] = scale * rng.normal();
    for (std::size_t i = 0; i < sizes_[l + 1]; ++i) w_[off++] = 0.0; // biases
  }
}

std::vector<Mlp::LayerView> Mlp::layers() const {
  std::vector<LayerView> lv;
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    LayerView v;
    v.in = sizes_[l];
    v.out = sizes_[l + 1];
    v.w_off = off;
    off += v.in * v.out;
    v.b_off = off;
    off += v.out;
    lv.push_back(v);
  }
  return lv;
}

// ---- batched passes -------------------------------------------------------
//
// Layout: activations live in the thread-local Workspace arena as compact
// row-major [batch x width] slabs; weights are used in place (layer l's
// weight block is an out x in row-major matrix at w_off). Per layer:
//
//   forward   A_{l+1} = act(A_l * W^T + b)     gemm(kN, kT), beta = 1 on a
//                                              bias-preloaded C
//   backward  D_l     = (D_{l+1} .* act') * W  gemm(kN, kN), beta = 0
//   wgrad     dW_l   += D_{l+1}^T * A_l        gemm(kT, kN), beta = 1,
//                                              k = batch (ascending rows)
//
// Each gemm reduces in ascending k with a single accumulator per element
// (gemm.hpp contract), and IEEE multiplies commute bitwise, so every
// output matches a per-sample loop bit for bit. The activation is the
// dispatched simd tanh_n, bitwise the same on every target.
// grad_input_rows is not a GEMM pass: it is the simd MLP kernel, which
// keeps the same per-row operation order.

void Mlp::forward_batch(const la::Matrix<double>& x, la::Matrix<double>& y) const {
  if (x.cols() != n_in())
    throw std::invalid_argument("Mlp::forward_batch: input width");
  const std::size_t nb = x.rows();
  y.resize(nb, n_out());
  if (nb == 0) return;
  const auto lv = layers();
  std::size_t wmax = 0, wflops = 0;
  for (auto s : sizes_) wmax = std::max(wmax, s);
  for (const auto& L : lv) wflops += L.in * L.out;
  // The per-layer gemms count 2*nb*sum(in*out); top up the bias/activation
  // remainder so the total matches nb scalar forward() calls exactly.
  flops::add(2 * nb * (n_params() - wflops));

  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  double* a = ws.get<double>(nb * wmax);
  double* nx = ws.get<double>(nb * wmax);
  std::copy(x.data(), x.data() + nb * n_in(), a);
  for (std::size_t l = 0; l < lv.size(); ++l) {
    const auto& L = lv[l];
    const bool last = l + 1 == lv.size();
    double* out = last ? y.data() : nx;
    const double* bias = w_.data() + L.b_off;
    for (std::size_t s = 0; s < nb; ++s)
      std::copy(bias, bias + L.out, out + s * L.out);
    la::gemm(la::Trans::kN, la::Trans::kT, nb, L.out, L.in, 1.0, a, L.in,
             w_.data() + L.w_off, L.in, 1.0, out, L.out);
    if (!last) {
      simd::kernels().tanh_n(out, out, nb * L.out);
      std::swap(a, nx);
    }
  }
}

void Mlp::grad_input_batch(const la::Matrix<double>& x, la::Matrix<double>& dy0_dx,
                           la::Matrix<double>* y) const {
  if (x.cols() != n_in())
    throw std::invalid_argument("Mlp::grad_input_batch: input width");
  const std::size_t nb = x.rows();
  dy0_dx.resize(nb, n_in());
  if (y) y->resize(nb, n_out());
  grad_input_rows(x.data(), nb, dy0_dx.data(), y ? y->data() : nullptr);
}

void Mlp::grad_input_rows(const double* x, std::size_t nb, double* dy0_dx,
                          double* y) const {
  if (nb == 0) return;
  flops::add(4 * nb * n_params());
  const simd::MlpNet net{sizes_.data(), sizes_.size(), w_.data()};
  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  simd::kernels().mlp_grad_rows(net, x, nb, dy0_dx, y,
                                ws.get<double>(simd::mlp_scratch_doubles(net)));
}

void Mlp::forward_backward_batch(const la::Matrix<double>& x,
                                 const la::Matrix<double>& dl_dy,
                                 std::vector<double>& grad,
                                 la::Matrix<double>& y) const {
  if (x.cols() != n_in())
    throw std::invalid_argument("Mlp::forward_backward_batch: input width");
  if (grad.size() != w_.size())
    throw std::invalid_argument("Mlp::forward_backward_batch: grad buffer size");
  const std::size_t nb = x.rows();
  if (dl_dy.rows() != nb || dl_dy.cols() != n_out())
    throw std::invalid_argument("Mlp::forward_backward_batch: dl_dy shape");
  y.resize(nb, n_out());
  if (nb == 0) return;
  const auto lv = layers();
  std::size_t wmax = 0;
  for (auto s : sizes_) wmax = std::max(wmax, s);
  // gemm-counted work: forward + weight-grad over all layers, delta
  // backprop over layers > 0 (the scalar path also backprops through
  // layer 0 and discards the result; we skip it). Top up the difference
  // so nb scalar forward_backward() calls and one batched call agree.
  std::size_t counted = 0;
  for (std::size_t l = 0; l < lv.size(); ++l)
    counted += (l > 0 ? 6 : 4) * nb * lv[l].in * lv[l].out;
  flops::add(6 * nb * n_params() - counted);

  common::Workspace& ws = common::Workspace::local();
  common::Workspace::Frame frame(ws);
  std::vector<const double*> acts(lv.size() + 1);
  acts[0] = x.data();
  for (std::size_t l = 0; l < lv.size(); ++l) {
    const auto& L = lv[l];
    const bool last = l + 1 == lv.size();
    double* out = last ? y.data() : ws.get<double>(nb * L.out);
    const double* bias = w_.data() + L.b_off;
    for (std::size_t s = 0; s < nb; ++s)
      std::copy(bias, bias + L.out, out + s * L.out);
    la::gemm(la::Trans::kN, la::Trans::kT, nb, L.out, L.in, 1.0, acts[l], L.in,
             w_.data() + L.w_off, L.in, 1.0, out, L.out);
    if (!last) simd::kernels().tanh_n(out, out, nb * L.out);
    acts[l + 1] = out;
  }

  double* delta = ws.get<double>(nb * wmax);
  double* prev = ws.get<double>(nb * wmax);
  std::copy(dl_dy.data(), dl_dy.data() + nb * n_out(), delta);
  for (std::size_t li = lv.size(); li-- > 0;) {
    const auto& L = lv[li];
    if (li + 1 < lv.size()) {
      const double* a = acts[li + 1];
      for (std::size_t i = 0; i < nb * L.out; ++i)
        delta[i] *= (1.0 - a[i] * a[i]);
    }
    // Bias gradient: accumulate rows in ascending sample order — the same
    // chain of adds the scalar per-sample loop performs.
    for (std::size_t o = 0; o < L.out; ++o) {
      double g = grad[L.b_off + o];
      for (std::size_t s = 0; s < nb; ++s) g += delta[s * L.out + o];
      grad[L.b_off + o] = g;
    }
    // Weight gradient: dW += Delta^T * A, k = batch, ascending.
    la::gemm(la::Trans::kT, la::Trans::kN, L.out, L.in, nb, 1.0, delta, L.out,
             acts[li], L.in, 1.0, grad.data() + L.w_off, L.in);
    if (li > 0) {
      la::gemm(la::Trans::kN, la::Trans::kN, nb, L.in, L.out, 1.0, delta, L.out,
               w_.data() + L.w_off, L.in, 0.0, prev, L.in);
      std::swap(delta, prev);
    }
  }
}

void Mlp::save(const std::string& path) const {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) throw std::runtime_error("Mlp::save: cannot open " + path);
  std::fprintf(fp, "mlp %zu\n", sizes_.size());
  for (auto s : sizes_) std::fprintf(fp, "%zu ", s);
  std::fprintf(fp, "\n");
  for (double w : w_) std::fprintf(fp, "%.17g\n", w);
  std::fclose(fp);
}

Mlp Mlp::load(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "r");
  if (!fp) throw std::runtime_error("Mlp::load: cannot open " + path);
  char tag[8];
  std::size_t nlayers = 0;
  if (std::fscanf(fp, "%7s %zu", tag, &nlayers) != 2 || std::string(tag) != "mlp") {
    std::fclose(fp);
    throw std::runtime_error("Mlp::load: bad header in " + path);
  }
  std::vector<std::size_t> sizes(nlayers);
  for (auto& s : sizes)
    if (std::fscanf(fp, "%zu", &s) != 1) {
      std::fclose(fp);
      throw std::runtime_error("Mlp::load: bad sizes in " + path);
    }
  Mlp m(sizes);
  for (double& w : m.w_)
    if (std::fscanf(fp, "%lg", &w) != 1) {
      std::fclose(fp);
      throw std::runtime_error("Mlp::load: truncated weights in " + path);
    }
  std::fclose(fp);
  return m;
}

} // namespace mlmd::nnq
