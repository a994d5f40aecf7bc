// Unit tests for the common substrate: BF16 softfloat, RNG, FLOP
// counters, timers, CLI parsing, aligned allocation, units.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "mlmd/common/aligned.hpp"
#include "mlmd/common/bf16.hpp"
#include "mlmd/common/cli.hpp"
#include "mlmd/common/flops.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/common/timer.hpp"
#include "mlmd/common/units.hpp"

namespace {

using mlmd::bf16;

TEST(Bf16, ExactValuesRoundTrip) {
  // Values with <= 7 mantissa bits are representable exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.5f, 1024.0f, 0.0078125f}) {
    EXPECT_EQ(bf16(v).to_float(), v) << v;
  }
}

TEST(Bf16, RelativeErrorBounded) {
  // BF16 has 8 mantissa bits (incl. implicit): rel err <= 2^-8.
  mlmd::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.uniform(-1e6, 1e6));
    if (v == 0.0f) continue;
    const float r = bf16(v).to_float();
    EXPECT_LE(std::abs(r - v) / std::abs(v), 1.0f / 256.0f) << v;
  }
}

TEST(Bf16, RoundToNearestEven) {
  // 1.0 + 2^-8 is exactly halfway between 1.0 and 1.0 + 2^-7; RNE keeps
  // the even (lower) mantissa.
  const float halfway = 1.0f + 1.0f / 256.0f;
  EXPECT_EQ(bf16(halfway).to_float(), 1.0f);
  // Just above halfway rounds up.
  EXPECT_EQ(bf16(std::nextafter(halfway, 2.0f)).to_float(), 1.0f + 1.0f / 128.0f);
}

TEST(Bf16, SpecialValues) {
  EXPECT_TRUE(std::isinf(bf16(std::numeric_limits<float>::infinity()).to_float()));
  EXPECT_TRUE(std::isnan(bf16(std::numeric_limits<float>::quiet_NaN()).to_float()));
  EXPECT_EQ(bf16(-0.0f).bits(), 0x8000u);
}

TEST(Bf16, SplitImprovesAccuracy) {
  mlmd::Rng rng(2);
  double err1 = 0, err2 = 0, err3 = 0;
  for (int i = 0; i < 500; ++i) {
    const float v = static_cast<float>(rng.normal());
    bf16 parts[3];
    mlmd::bf16_split(v, parts, 1);
    err1 += std::abs(mlmd::bf16_join(parts, 1) - v);
    mlmd::bf16_split(v, parts, 2);
    err2 += std::abs(mlmd::bf16_join(parts, 2) - v);
    mlmd::bf16_split(v, parts, 3);
    err3 += std::abs(mlmd::bf16_join(parts, 3) - v);
  }
  EXPECT_LT(err2, err1 * 0.1);
  EXPECT_LE(err3, err2);
}

TEST(Bf16, SplitX3NearExact) {
  mlmd::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    bf16 parts[3];
    mlmd::bf16_split(v, parts, 3);
    const float r = mlmd::bf16_join(parts, 3);
    // x3 covers 21+ mantissa bits: comparable to FP32.
    EXPECT_NEAR(r, v, std::abs(v) * 3e-6f + 1e-30f);
  }
}

TEST(Rng, Deterministic) {
  mlmd::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  mlmd::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformMomentsAndRange) {
  mlmd::Rng rng(7);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0 / 3.0, 0.01);
}

TEST(Rng, NormalMoments) {
  mlmd::Rng rng(8);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, SplitStreamsIndependent) {
  mlmd::Rng base(9);
  auto s1 = base.split(1);
  auto s2 = base.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (s1() == s2()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, IndexInRange) {
  mlmd::Rng rng(10);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Flops, CountsAndScopes) {
  mlmd::flops::reset();
  mlmd::flops::add(100);
  mlmd::flops::Scope scope;
  mlmd::flops::add(50);
  EXPECT_EQ(scope.flops(), 50u);
  EXPECT_EQ(mlmd::flops::total(), 150u);
}

TEST(Flops, ThreadSafety) {
  mlmd::flops::reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 10000; ++i) mlmd::flops::add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mlmd::flops::total(), 40000u);
}

TEST(Flops, AnalyticGemmCounts) {
  EXPECT_EQ(mlmd::flops::gemm_complex(2, 3, 4), 8u * 24u);
  EXPECT_EQ(mlmd::flops::gemm_real(2, 3, 4), 2u * 24u);
}

TEST(Timer, MeasuresElapsed) {
  mlmd::Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Cli, ParsesTypes) {
  const char* argv[] = {"prog", "--n=42", "--x=2.5", "--flag", "--name=abc",
                        "positional"};
  mlmd::Cli cli(6, argv);
  EXPECT_EQ(cli.integer("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.real("x", 0), 2.5);
  EXPECT_TRUE(cli.flag("flag"));
  EXPECT_EQ(cli.str("name"), "abc");
  EXPECT_EQ(cli.integer("missing", 7), 7);
  EXPECT_FALSE(cli.has("positional"));
}

TEST(Cli, RejectsTrailingGarbageInNumbers) {
  // strtol/strtod stop at the first bad character; the getters must treat
  // a partial parse as an error, not silently truncate --n=8x to 8.
  const char* argv[] = {"prog", "--n=8x", "--x=1e3garbage", "--empty="};
  mlmd::Cli cli(4, argv);
  EXPECT_THROW((void)cli.integer("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.real("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.integer("empty", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.real("empty", 0.0), std::invalid_argument);
  try {
    (void)cli.integer("n", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the offending flag and hints at the usage.
    EXPECT_NE(std::string(e.what()).find("--n=8x"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("usage"), std::string::npos);
  }
}

TEST(Cli, AcceptsFullNumericValues) {
  const char* argv[] = {"prog", "--n=-17", "--x=2.5e-3", "--y=inf"};
  mlmd::Cli cli(4, argv);
  EXPECT_EQ(cli.integer("n", 0), -17);
  EXPECT_DOUBLE_EQ(cli.real("x", 0.0), 2.5e-3);
  // strtod accepts "inf"; the whole value parsed, so no throw.
  EXPECT_TRUE(std::isinf(cli.real("y", 0.0)));
}

TEST(Aligned, AllocationAligned) {
  std::vector<double, mlmd::AlignedAllocator<double>> v(1000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % mlmd::kSimdAlign, 0u);
}

TEST(Units, Conversions) {
  using namespace mlmd::units;
  EXPECT_NEAR(attoseconds(attosecond_per_au), 1.0, 1e-12);
  EXPECT_NEAR(femtoseconds(1.0), 1000.0 / attosecond_per_au, 1e-9);
  EXPECT_NEAR(ev(ev_per_hartree), 1.0, 1e-9);
  EXPECT_NEAR(angstrom(1.0), 1.8897259886, 1e-9);
  EXPECT_NEAR(vector_potential_peak(0.06, 0.06), 1.0, 1e-12);
}

} // namespace
