// Tests for mlmd::par::ThreadPool: chunk coverage, the determinism
// contract (threads=1 bit-identical to threads=N, for parallel_for,
// parallel_reduce, and the pooled kernels), exception propagation,
// nesting, concurrent launches, and the MLMD_NUM_THREADS parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/dsa.hpp"
#include "mlmd/lfd/hamiltonian.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/maxwell/maxwell3d.hpp"
#include "mlmd/mg/multigrid.hpp"
#include "mlmd/nnq/angular.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/qxmd/pair_potential.hpp"

namespace {

using mlmd::par::ThreadPool;

TEST(ThreadPool, NumThreadsAndDefaults) {
  ThreadPool p1(1), p4(4);
  EXPECT_EQ(p1.num_threads(), 1);
  EXPECT_EQ(p4.num_threads(), 4);
  ThreadPool pd(0); // hardware default, at least 1
  EXPECT_GE(pd.num_threads(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10'007; // prime: ragged final chunk
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, 64, [&](std::size_t i0, std::size_t i1) {
    EXPECT_LT(i0, i1);
    for (std::size_t i = i0; i < i1; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyRangeAndZeroGrain) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // grain 0 is treated as 1.
  std::vector<int> out(3, 0);
  pool.parallel_for(0, 3, 0, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) out[i] = 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 1, 1}));
}

double chunk_sum(std::size_t i0, std::size_t i1) {
  double s = 0.0;
  for (std::size_t i = i0; i < i1; ++i)
    s += std::sin(0.001 * static_cast<double>(i)) / (1.0 + static_cast<double>(i));
  return s;
}

TEST(ThreadPool, ReduceBitIdenticalAcrossThreadCounts) {
  // The documented tolerance is zero: the chunk decomposition and the
  // combine order depend only on (range, grain), so every thread count
  // yields the same bits.
  const std::size_t n = 100'000;
  ThreadPool serial(1);
  const double ref = serial.parallel_reduce(
      0, n, 1024, 0.0, chunk_sum, [](double a, double b) { return a + b; });
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 3; ++rep) {
      const double got = pool.parallel_reduce(
          0, n, 1024, 0.0, chunk_sum, [](double a, double b) { return a + b; });
      std::uint64_t rb, gb;
      std::memcpy(&rb, &ref, 8);
      std::memcpy(&gb, &got, 8);
      EXPECT_EQ(rb, gb) << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ThreadPool, ParallelForBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 4096;
  auto fill = [&](ThreadPool& pool, std::vector<double>& v) {
    pool.parallel_for(0, n, 32, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i)
        v[i] = std::cos(0.01 * static_cast<double>(i)) * std::sqrt(1.0 + i);
    });
  };
  ThreadPool serial(1), pool(4);
  std::vector<double> a(n), b(n);
  fill(serial, a);
  fill(pool, b);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), n * sizeof(double)), 0);
}

TEST(ThreadPool, ExceptionRethrownAndPoolReusable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 1,
                        [&](std::size_t i0, std::size_t) {
                          if (i0 == 500) throw std::runtime_error("chunk 500");
                        }),
      std::runtime_error);
  // The pool survives and the next launch completes all chunks.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedLaunchRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Nested launch from inside a task: must run serially inline without
    // deadlocking on the pool's launch mutex.
    pool.parallel_for(0, 10, 1,
                      [&](std::size_t, std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, ConcurrentExternalLaunchersSerialize) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep)
        pool.parallel_for(0, 50, 4,
                          [&](std::size_t i0, std::size_t i1) {
                            total.fetch_add(static_cast<int>(i1 - i0));
                          });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4 * 20 * 50);
}

TEST(ThreadPool, ParseEnvThreads) {
  EXPECT_EQ(ThreadPool::parse_env_threads(nullptr), 0);
  EXPECT_EQ(ThreadPool::parse_env_threads(""), 0);
  EXPECT_EQ(ThreadPool::parse_env_threads("4"), 4);
  EXPECT_EQ(ThreadPool::parse_env_threads("1"), 1);
  EXPECT_EQ(ThreadPool::parse_env_threads("0"), 0);      // <1 -> default
  EXPECT_EQ(ThreadPool::parse_env_threads("-3"), 0);     // <1 -> default
  EXPECT_EQ(ThreadPool::parse_env_threads("abc"), 0);    // malformed
  EXPECT_EQ(ThreadPool::parse_env_threads("4x"), 0);     // trailing junk
  EXPECT_EQ(ThreadPool::parse_env_threads("999999"), 1024); // clamped
}

// ---- pooled kernels: thread-count invariance end to end ----------------

class GlobalPoolGuard {
public:
  ~GlobalPoolGuard() { ThreadPool::set_global_threads(0); }
};

TEST(ThreadPoolKernels, GemmBitIdenticalSerialVsPool) {
  GlobalPoolGuard guard;
  using cf = std::complex<float>;
  const std::size_t m = 130, k = 70, n = 90; // ragged vs the 64-row tiles
  mlmd::la::Matrix<cf> a(m, k), b(k, n);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = cf(std::sin(0.1f * static_cast<float>(i)),
                     std::cos(0.05f * static_cast<float>(i)));
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = cf(std::cos(0.07f * static_cast<float>(i)),
                     std::sin(0.02f * static_cast<float>(i)));

  // a^H * a is k-by-k (the orbital-overlap shape from Table V).
  mlmd::la::Matrix<cf> c1(k, k), c4(k, k);
  ThreadPool::set_global_threads(1);
  mlmd::la::gemm(mlmd::la::Trans::kC, mlmd::la::Trans::kN, cf(1.0f, 0.5f),
                 a, a, cf{}, c1);
  ThreadPool::set_global_threads(4);
  mlmd::la::gemm(mlmd::la::Trans::kC, mlmd::la::Trans::kN, cf(1.0f, 0.5f),
                 a, a, cf{}, c4);
  EXPECT_TRUE(c1 == c4);

  mlmd::la::Matrix<cf> d1(m, n), d4(m, n);
  ThreadPool::set_global_threads(1);
  mlmd::la::gemm(mlmd::la::Trans::kN, mlmd::la::Trans::kN, cf(1.0f, 0.0f),
                 a, b, cf{}, d1);
  ThreadPool::set_global_threads(4);
  mlmd::la::gemm(mlmd::la::Trans::kN, mlmd::la::Trans::kN, cf(1.0f, 0.0f),
                 a, b, cf{}, d4);
  EXPECT_TRUE(d1 == d4);
}

TEST(ThreadPoolKernels, MaxwellStencilBitIdenticalSerialVsPool) {
  GlobalPoolGuard guard;
  auto advance = [](int steps) {
    mlmd::maxwell::Maxwell3D em(12, 10, 8, 1.0, 1e-3);
    em.seed_plane_wave(2, 0.5);
    for (int s = 0; s < steps; ++s) em.step();
    return em;
  };
  ThreadPool::set_global_threads(1);
  auto em1 = advance(25);
  ThreadPool::set_global_threads(4);
  auto em4 = advance(25);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(std::memcmp(em1.e_field(c).data(), em4.e_field(c).data(),
                          em1.ncells() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(em1.b_field(c).data(), em4.b_field(c).data(),
                          em1.ncells() * sizeof(double)),
              0);
  }
}

// --- thread-count bit-identity of the grid and atom kernels ---------------

/// Runs `kernel` on global pools of 1, 2 and 4 threads and expects
/// byte-identical outputs. The 2- and 4-thread runs must launch the pool:
/// an input that runs as one inline chunk would prove nothing.
template <class Kernel>
void expect_bits_independent_of_threads(Kernel&& kernel) {
  GlobalPoolGuard guard;
  auto& launches = mlmd::obs::Registry::global().counter("pool.launches");
  ThreadPool::set_global_threads(1);
  const std::vector<double> ref = kernel();
  for (int threads : {2, 4}) {
    ThreadPool::set_global_threads(threads);
    const auto before = launches.value();
    const std::vector<double> got = kernel();
    EXPECT_GT(launches.value(), before) << "threads=" << threads;
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0)
        << "threads=" << threads;
  }
}

/// The doubles making up `n` values of `T` (double or complex) at `p`.
template <class T>
std::vector<double> as_doubles(const T* p, std::size_t n) {
  const auto* d = reinterpret_cast<const double*>(p);
  return {d, d + n * sizeof(T) / sizeof(double)};
}

std::vector<double> smooth_field(std::size_t n, double k) {
  std::vector<double> f(n);
  for (std::size_t i = 0; i < n; ++i)
    f[i] = std::sin(k * i) + 0.3 * std::cos(0.5 * k * i);
  return f;
}

/// 16^3 grid, 8 orbitals: every lfd grid loop splits into several chunks.
mlmd::lfd::SoAWave<double> twisted_wave() {
  mlmd::lfd::SoAWave<double> w({16, 16, 16, 0.7, 0.6, 0.5}, 8);
  mlmd::lfd::init_plane_waves(w);
  for (std::size_t i = 0; i < w.psi.size(); ++i)
    w.psi.data()[i] *=
        std::polar(1.0 + 0.1 * std::sin(0.37 * i), 0.2 * std::cos(0.11 * i));
  return w;
}

TEST(ThreadPoolKernels, DensityAndCurrentBitIdenticalAcrossThreadCounts) {
  const auto w = twisted_wave();
  const std::vector<double> f = {2.0, 2.0, 1.5, 1.0, 0.5, 0.25, 0.0, 0.0};
  const double a[3] = {0.3, -0.2, 0.1};
  expect_bits_independent_of_threads([&] {
    auto out = mlmd::lfd::density(w, f);
    const auto j = mlmd::lfd::macroscopic_current(w, f, a);
    out.insert(out.end(), j.begin(), j.end());
    return out;
  });
}

TEST(ThreadPoolKernels, ApplyHlocBitIdenticalAcrossThreadCounts) {
  const auto w = twisted_wave();
  const auto vloc = smooth_field(w.grid.size(), 0.013);
  const double a[3] = {0.3, -0.2, 0.1};
  expect_bits_independent_of_threads([&] {
    const auto h = mlmd::lfd::apply_hloc(w, vloc, a);
    return as_doubles(h.data(), h.size());
  });
}

TEST(ThreadPoolKernels, RenormalizeBitIdenticalAcrossThreadCounts) {
  const auto w0 = twisted_wave();
  expect_bits_independent_of_threads([&] {
    auto w = w0;
    mlmd::lfd::renormalize(w);
    return as_doubles(w.psi.data(), w.psi.size());
  });
}

TEST(ThreadPoolKernels, MultigridSolveBitIdenticalAcrossThreadCounts) {
  const mlmd::mg::Multigrid mg(16, 16, 16, 0.5, 0.5, 0.5);
  const auto f = smooth_field(16 * 16 * 16, 0.021);
  expect_bits_independent_of_threads([&] {
    std::vector<double> phi;
    phi.push_back(mg.solve(f, phi).rel_residual);
    return phi;
  });
}

TEST(ThreadPoolKernels, DsaHartreeUpdateBitIdenticalAcrossThreadCounts) {
  // 24^3 so that the flat Verlet update (4096 points per chunk) splits too.
  const mlmd::grid::Grid3 g{24, 24, 24, 0.5, 0.5, 0.5};
  expect_bits_independent_of_threads([&] {
    mlmd::lfd::DsaHartree dsa(g);
    dsa.solve(smooth_field(g.size(), 0.017));
    dsa.update(smooth_field(g.size(), 0.019));
    auto out = dsa.potential();
    out.insert(out.end(), dsa.potential_dot().begin(), dsa.potential_dot().end());
    return out;
  });
}

/// 216 jittered atoms of two types: the LJ and descriptor loops all split.
mlmd::qxmd::Atoms jittered_atoms() {
  auto atoms = mlmd::qxmd::make_cubic_lattice(6, 6, 6, 4.0, 50.0);
  mlmd::Rng rng(21);
  for (auto& x : atoms.r) x += 0.25 * rng.normal();
  for (std::size_t i = 0; i < atoms.n(); ++i) atoms.type[i] = static_cast<int>(i % 2);
  return atoms;
}

TEST(ThreadPoolKernels, LjEnergyForcesBitIdenticalAcrossThreadCounts) {
  const auto atoms = jittered_atoms();
  const mlmd::qxmd::LjParams p;
  const mlmd::qxmd::NeighborList nl(atoms, p.rc);
  expect_bits_independent_of_threads([&] {
    std::vector<double> forces;
    const double e = mlmd::qxmd::lj_energy_forces(atoms, nl, p, forces);
    forces.push_back(e);
    return forces;
  });
}

TEST(ThreadPoolKernels, DescriptorsBitIdenticalAcrossThreadCounts) {
  const auto atoms = jittered_atoms();
  const auto radial = mlmd::nnq::RadialBasis::make(6, 1.0, 6.0, 1.0);
  const auto angular = mlmd::nnq::AngularBasis::make(2, 6.0, 0.05);
  const mlmd::qxmd::NeighborList nl(atoms, 6.0);
  expect_bits_independent_of_threads([&] {
    auto out = mlmd::nnq::atom_descriptors(atoms, nl, radial, 2);
    std::vector<double> ang(atoms.n() * angular.size());
    mlmd::nnq::angular_descriptors(atoms, nl, angular, ang, angular.size(), 0);
    out.insert(out.end(), ang.begin(), ang.end());
    return out;
  });
}

} // namespace
