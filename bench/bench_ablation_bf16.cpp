// BF16 precision ablation (paper Sec. VI.C and [34]): accuracy of the
// float_to_BF16 / BF16x2 / BF16x3 compute modes on the nonlocal-
// correction CGEMM, versus FP32. Shows the accuracy ladder the oneMKL
// compute modes implement, here with our software BF16 split.

#include <cstdio>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/gemm.hpp"

int main() {
  using namespace mlmd::la;
  using cf = std::complex<float>;

  std::printf("# BF16 compute-mode ablation: CGEMM C = A^H B accuracy vs "
              "FP32\n");
  std::printf("%-10s %-12s %-14s %-14s %-14s\n", "n", "FP32ref", "BF16",
              "BF16x2", "BF16x3");

  mlmd::Rng rng(55);
  for (std::size_t n : {16, 32, 64, 128, 256}) {
    Matrix<cf> a(n, n), b(n, n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = cf(static_cast<float>(rng.normal()),
                       static_cast<float>(rng.normal()));
      b.data()[i] = cf(static_cast<float>(rng.normal()),
                       static_cast<float>(rng.normal()));
    }
    Matrix<cf> ref(n, n), c(n, n);
    const cf one(1.0f, 0.0f);
    gemm(Trans::kC, Trans::kN, one, a, b, cf{}, ref);
    const double scale = fro_norm(ref) / static_cast<double>(n);

    double errs[3];
    const ComputeMode modes[3] = {ComputeMode::kBF16, ComputeMode::kBF16x2,
                                  ComputeMode::kBF16x3};
    for (int m = 0; m < 3; ++m) {
      gemm_mixed(modes[m], Trans::kC, Trans::kN, one, a, b, cf{}, c);
      errs[m] = max_abs_diff(c, ref) / scale;
    }
    std::printf("%-10zu %-12s %-14.3e %-14.3e %-14.3e\n", n, "0", errs[0],
                errs[1], errs[2]);
  }
  std::printf("# expected shape: each mode ~256x more accurate than the "
              "previous; BF16x3 comparable to FP32 roundoff\n");
  std::printf("# paper: float_to_BF16 is sufficient for the perturbative "
              "nonlocal correction (Sec. V.B.7)\n");
  return 0;
}
