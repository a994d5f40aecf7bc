// Tests for mlmd::par::ThreadPool: chunk coverage, the determinism
// contract (threads=1 bit-identical to threads=N, for parallel_for,
// parallel_reduce, and the pooled kernels), exception propagation,
// nesting, concurrent launches, and the MLMD_NUM_THREADS parsing.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mlmd/common/flops.hpp"
#include "mlmd/common/rng.hpp"
#include "mlmd/ferro/lattice.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/dsa.hpp"
#include "mlmd/lfd/hamiltonian.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/mg/multigrid.hpp"
#include "mlmd/nnq/allegro.hpp"
#include "mlmd/nnq/angular.hpp"
#include "mlmd/nnq/descriptor.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/qxmd/pair_potential.hpp"
#include "mlmd/simd/simd.hpp"
#include "mlmd/topo/topology.hpp"
#include "simd_targets.hpp"

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

// ---- pool mechanics: home ranges, stealing, spin-then-park ------------

/// Spins until `pred()` holds or a generous deadline passes; returns
/// whether it holds. A broken wake or steal fails the test instead of
/// hanging it.
template <class Pred>
bool wait_for(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

mlmd::obs::Histogram& imbalance_histogram() {
  return mlmd::obs::Registry::global().histogram("pool.imbalance");
}

TEST(ThreadPool, EveryChunkRunsOnceOverUnevenAndEmptyHomeRanges) {
  // With n chunks and P participants the home ranges [p*n/P, (p+1)*n/P)
  // are uneven for most n here and empty for some participants when
  // n < P; every chunk must still run exactly once per launch.
  for (const int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    imbalance_histogram().reset();
    for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64}) {
      std::vector<int> hits(n, 0); // plain ints: the join orders the launches
      const int reps = 50;
      for (int rep = 0; rep < reps; ++rep)
        pool.parallel_for(0, n, 1, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) ++hits[i];
        });
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_EQ(hits[c], reps) << "threads=" << threads << " n=" << n << " c=" << c;
    }
    // Busiest participant's share over the even share: 1 when balanced,
    // nthreads when one participant ran every chunk.
    EXPECT_GE(imbalance_histogram().min(), 1.0) << "threads=" << threads;
    EXPECT_LE(imbalance_histogram().max(), static_cast<double>(threads))
        << "threads=" << threads;
  }
}

TEST(ThreadPool, ParkedWorkersWakeForALaunchAfterAnIdleGap) {
  // After an idle gap far past the spin budget every worker has parked.
  // Each of the 4 chunks (one per home range) waits until all 4 have
  // started, so the launch completes only if every parked worker woke
  // and joined it.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(100 * ThreadPool::kSpinBudget);
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    pool.parallel_for(0, kThreads, 1, [&](std::size_t, std::size_t) {
      started.fetch_add(1);
      if (wait_for([&] { return started.load() == kThreads; })) met.fetch_add(1);
    });
    EXPECT_EQ(met.load(), kThreads) << "round " << round;
  }
}

TEST(ThreadPool, BackToBackLaunchesKeepExactTalliesUnderSteals) {
  // 20,000 launches of 9 uneven chunks (home ranges 2/2/2/3) whose cost
  // varies by chunk, so participants finish their ranges at different
  // times and steal from each other. Plain per-chunk tallies must come
  // out exact, and ThreadSanitizer sees each launch ordered after the
  // previous one's join.
  constexpr int kThreads = 4;
  constexpr std::size_t kChunks = 9;
  constexpr int kLaunches = 20'000;
  ThreadPool pool(kThreads);
  imbalance_histogram().reset();
  std::vector<long> tally(kChunks, 0);
  std::vector<double> sink(kChunks, 0.0);
  for (int l = 0; l < kLaunches; ++l)
    pool.parallel_for(0, kChunks, 1, [&](std::size_t c, std::size_t) {
      double x = static_cast<double>(l);
      for (std::size_t k = 0; k < 40 * ((c + static_cast<std::size_t>(l)) % 4); ++k)
        x = std::sqrt(x + 1.0);
      sink[c] += x;
      ++tally[c];
    });
  for (std::size_t c = 0; c < kChunks; ++c) EXPECT_EQ(tally[c], kLaunches) << c;
  EXPECT_EQ(imbalance_histogram().count(), static_cast<std::uint64_t>(kLaunches));
  EXPECT_GE(imbalance_histogram().min(), 1.0);
  EXPECT_LE(imbalance_histogram().max(), static_cast<double>(kThreads));
}

TEST(ThreadPool, ExceptionFromStolenChunkIsRethrownAndPoolReusable) {
  // Two participants, four chunks: the worker's home range is {0, 1}, the
  // launcher's {2, 3}. Chunk 2 waits until the worker is inside chunk 0,
  // and chunk 0 waits until chunk 1 has run, so chunk 1 can only be run
  // by the launcher stealing it from the worker's range. It throws.
  ThreadPool pool(2);
  const auto launcher = std::this_thread::get_id();
  std::atomic<bool> chunk0_started{false};
  std::atomic<bool> chunk1_ran{false};
  std::thread::id chunk1_thread;
  EXPECT_THROW(pool.parallel_for(0, 4, 1,
                                 [&](std::size_t c, std::size_t) {
                                   if (c == 0) {
                                     chunk0_started.store(true);
                                     wait_for([&] { return chunk1_ran.load(); });
                                   } else if (c == 1) {
                                     chunk1_thread = std::this_thread::get_id();
                                     chunk1_ran.store(true);
                                     throw std::runtime_error("stolen chunk");
                                   } else if (c == 2) {
                                     wait_for([&] { return chunk0_started.load(); });
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(chunk1_thread, launcher) << "chunk 1 was not stolen";
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
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
  // 17^3: with an odd extent the red-black smoother's wrap neighbour has
  // the same colour, so a sweep split into chunks would race.
  for (std::size_t n : {16, 17}) {
    SCOPED_TRACE(n);
    const mlmd::mg::Multigrid mg(n, n, n, 0.5, 0.5, 0.5);
    const auto f = smooth_field(n * n * n, 0.021);
    expect_bits_independent_of_threads([&] {
      std::vector<double> phi;
      phi.push_back(mg.solve(f, phi).rel_residual);
      return phi;
    });
  }
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

// --- stage-3 lattice kernels: thread counts and the serial oracle -------

namespace oracle {

using mlmd::ferro::FerroLattice;
using mlmd::ferro::Vec3;

// The serial FerroLattice::forces() + step(), the pipeline's external-force
// step and topo::charge_density as they were before the lattice kernels
// moved onto the pool, copied with member access spelled out. The pooled
// kernels must reproduce them bit for bit. They read and write the field
// through the lattice's interleaved copies, one Vec3 per cell, so the
// arithmetic is the pre-pool AoS code's whatever the storage layout.

double dot(const Vec3& a, const Vec3& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
}
double norm2(const Vec3& a) { return dot(a, a); }

void forces(const FerroLattice& lat, std::vector<Vec3>& f) {
  const auto& p_ = lat.params();
  const auto u_ = lat.u_cells();
  const auto& w_ = lat.excitation();
  const std::size_t lx_ = lat.lx(), ly_ = lat.ly();
  f.assign(lat.ncells(), Vec3{0, 0, 0});
  for (std::size_t x = 0; x < lx_; ++x) {
    const std::size_t xp = (x + 1) % lx_;
    const std::size_t xm = (x + lx_ - 1) % lx_;
    for (std::size_t y = 0; y < ly_; ++y) {
      const std::size_t yp = (y + 1) % ly_;
      const std::size_t ym = (y + ly_ - 1) % ly_;
      const std::size_t i = lat.index(x, y);
      const Vec3& ui = u_[i];
      const double n2 = norm2(ui);
      const double aw = p_.a0 * (1.0 - 2.0 * w_[i]);
      Vec3& fi = f[i];
      for (int c = 0; c < 3; ++c)
        fi[c] += -2.0 * aw * ui[c] - 4.0 * p_.b * n2 * ui[c] + p_.e_ext[c];
      fi[2] += 2.0 * p_.k * ui[2];
      const Vec3& nxp = u_[lat.index(xp, y)];
      const Vec3& nxm = u_[lat.index(xm, y)];
      const Vec3& nyp = u_[lat.index(x, yp)];
      const Vec3& nym = u_[lat.index(x, ym)];
      for (int c = 0; c < 3; ++c)
        fi[c] += -2.0 * p_.j *
                 (4.0 * ui[c] - nxp[c] - nxm[c] - nyp[c] - nym[c]);
      fi[0] -= p_.d * (-nxp[2] + nxm[2]);
      fi[2] -= p_.d * (nxp[0] - nxm[0]);
      fi[1] -= -p_.d * (nyp[2] - nym[2]);
      fi[2] -= -p_.d * (-nyp[1] + nym[1]);
    }
  }
}

void step(FerroLattice& lat) {
  std::vector<Vec3> f;
  forces(lat, f);
  const auto& p_ = lat.params();
  auto u_ = lat.u_cells();
  auto v_ = lat.v_cells();
  const double dt = p_.dt;
  for (std::size_t i = 0; i < lat.ncells(); ++i) {
    for (int c = 0; c < 3; ++c) {
      v_[i][c] = (v_[i][c] + dt * f[i][c]) / (1.0 + p_.gamma * dt);
      u_[i][c] += dt * v_[i][c];
    }
  }
  lat.set_u_cells(u_);
  lat.set_v_cells(v_);
}

void step_with_forces(FerroLattice& lat, const std::vector<Vec3>& f) {
  const auto& p = lat.params();
  auto u = lat.u_cells();
  auto v = lat.v_cells();
  for (std::size_t i = 0; i < u.size(); ++i)
    for (int k = 0; k < 3; ++k) {
      auto ks = static_cast<std::size_t>(k);
      v[i][ks] = (v[i][ks] + p.dt * f[i][ks]) / (1.0 + p.gamma * p.dt);
      u[i][ks] += p.dt * v[i][ks];
    }
  lat.set_u_cells(u);
  lat.set_v_cells(v);
}

void step_langevin(FerroLattice& lat, double kT, mlmd::Rng& rng) {
  std::vector<Vec3> f;
  forces(lat, f);
  const auto& p_ = lat.params();
  auto u_ = lat.u_cells();
  auto v_ = lat.v_cells();
  const double dt = p_.dt;
  const double c1 = std::exp(-p_.gamma * dt);
  const double c2 = std::sqrt((1.0 - c1 * c1) * kT);
  for (std::size_t i = 0; i < lat.ncells(); ++i)
    for (int c = 0; c < 3; ++c) {
      v_[i][c] += dt * f[i][c];
      v_[i][c] = c1 * v_[i][c] + c2 * rng.normal();
      u_[i][c] += dt * v_[i][c];
    }
  lat.set_u_cells(u_);
  lat.set_v_cells(v_);
}

bool normalize(Vec3& a, double min_norm) {
  const double n = std::sqrt(dot(a, a));
  if (n < min_norm) return false;
  a = {a[0] / n, a[1] / n, a[2] / n};
  return true;
}

std::vector<double> charge_density(const std::vector<Vec3>& u, std::size_t lx,
                                   std::size_t ly, double min_norm) {
  std::vector<double> q(lx * ly, 0.0);
  const double inv4pi = 1.0 / (4.0 * std::numbers::pi);
  for (std::size_t x = 0; x < lx; ++x) {
    const std::size_t xp = (x + 1) % lx;
    for (std::size_t y = 0; y < ly; ++y) {
      const std::size_t yp = (y + 1) % ly;
      Vec3 n00 = u[x * ly + y];
      Vec3 n10 = u[xp * ly + y];
      Vec3 n01 = u[x * ly + yp];
      Vec3 n11 = u[xp * ly + yp];
      if (!normalize(n00, min_norm) || !normalize(n10, min_norm) ||
          !normalize(n01, min_norm) || !normalize(n11, min_norm))
        continue;
      q[x * ly + y] = inv4pi * (mlmd::topo::solid_angle(n00, n10, n11) +
                                mlmd::topo::solid_angle(n00, n11, n01));
    }
  }
  return q;
}

} // namespace oracle

/// 96 x 70 lattice: rows of 70 cells give 30-row chunks, so every lattice
/// loop splits into 4 chunks with a ragged 6-row last one. The field winds
/// through all three components (non-zero charge density), a few cells are
/// zero (the min_norm skip), and the excitation varies cell by cell.
mlmd::ferro::FerroLattice ragged_lattice() {
  mlmd::ferro::FerroLattice lat(96, 70);
  std::vector<double> w(lat.ncells());
  std::vector<mlmd::ferro::Vec3> u(lat.ncells()), v(lat.ncells());
  for (std::size_t i = 0; i < lat.ncells(); ++i) {
    const double s = static_cast<double>(i);
    u[i] = {0.6 * std::sin(0.071 * s), 0.6 * std::cos(0.053 * s),
            0.8 * std::cos(0.013 * s + 0.4)};
    v[i] = {0.01 * std::cos(0.3 * s), 0.0, -0.02 * std::sin(0.2 * s)};
    w[i] = 0.25 + 0.2 * std::sin(0.11 * s);
  }
  for (std::size_t i = 0; i < lat.ncells(); i += 997) u[i] = {0, 0, 0};
  lat.set_u_cells(u);
  lat.set_v_cells(v);
  lat.set_excitation(w);
  return lat;
}

/// u then v of `lat`, one Vec3 per cell, as doubles.
std::vector<double> state(const mlmd::ferro::FerroLattice& lat) {
  const auto u = lat.u_cells(), v = lat.v_cells();
  auto out = as_doubles(u.data(), u.size());
  const auto vd = as_doubles(v.data(), v.size());
  out.insert(out.end(), vd.begin(), vd.end());
  return out;
}

/// Runs `body` under every SIMD target the host supports: the lattice
/// kernels dispatch through simd::kernels(), so each target must match
/// the oracles.
template <class Body>
void for_each_simd_target(Body&& body) {
  for (const auto t : mlmd::simd::supported_targets()) {
    SCOPED_TRACE(mlmd::simd::target_name(t));
    mlmd::testing::ScopedSimdTarget guard(t);
    body();
  }
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0);
}

constexpr int kLatticeSteps = 5; // odd: the field ends in the swapped buffer

TEST(ThreadPoolKernels, FerroStepMatchesSerialOracleAtEveryThreadCount) {
  auto want = ragged_lattice();
  for (int s = 0; s < kLatticeSteps; ++s) oracle::step(want);
  const auto run = [] {
    auto lat = ragged_lattice();
    for (int s = 0; s < kLatticeSteps; ++s) lat.step();
    return state(lat);
  };
  for_each_simd_target([&] {
    expect_bits_independent_of_threads(run);
    expect_same_bits(run(), state(want));
  });
}

TEST(ThreadPoolKernels, FerroForcesMatchSerialOracleAtEveryThreadCount) {
  const auto lat = ragged_lattice();
  std::vector<mlmd::ferro::Vec3> want;
  oracle::forces(lat, want);
  const auto run = [&] {
    std::vector<mlmd::ferro::Vec3> f;
    lat.forces(f);
    return as_doubles(f.data(), f.size());
  };
  for_each_simd_target([&] {
    expect_bits_independent_of_threads(run);
    expect_same_bits(run(), as_doubles(want.data(), want.size()));
  });
}

TEST(ThreadPoolKernels, FerroExternalForceStepMatchesSerialOracle) {
  // Forces unrelated to the lattice's own, as the Eq. (4) models supply.
  std::vector<mlmd::ferro::Vec3> f(ragged_lattice().ncells());
  for (std::size_t i = 0; i < f.size(); ++i)
    f[i] = {std::sin(0.9 * i), -0.5 * std::cos(0.4 * i), 0.3};
  auto want = ragged_lattice();
  for (int s = 0; s < kLatticeSteps; ++s) oracle::step_with_forces(want, f);
  const auto run = [&] {
    auto lat = ragged_lattice();
    for (int s = 0; s < kLatticeSteps; ++s) lat.step(f);
    return state(lat);
  };
  for_each_simd_target([&] {
    expect_bits_independent_of_threads(run);
    expect_same_bits(run(), state(want));
  });
}

TEST(ThreadPoolKernels, FerroLangevinStepMatchesSerialOracle) {
  auto want = ragged_lattice();
  mlmd::Rng rng_want(7);
  for (int s = 0; s < kLatticeSteps; ++s) oracle::step_langevin(want, 0.05, rng_want);
  const auto run = [] {
    auto lat = ragged_lattice();
    mlmd::Rng rng(7);
    for (int s = 0; s < kLatticeSteps; ++s) lat.step_langevin(0.05, rng);
    return state(lat);
  };
  expect_bits_independent_of_threads(run);
  expect_same_bits(run(), state(want));
}

TEST(ThreadPoolKernels, ChargeDensityAndTotalMatchSerialOracle) {
  const auto lat = ragged_lattice();
  auto want = oracle::charge_density(lat.u_cells(), lat.lx(), lat.ly(), 1e-6);
  double total = 0.0;
  for (double v : want) total += v;
  want.push_back(total);
  const auto run = [&] {
    auto q = mlmd::topo::charge_density(lat);
    q.push_back(mlmd::topo::topological_charge(lat));
    return q;
  };
  for_each_simd_target([&] {
    expect_bits_independent_of_threads(run);
    expect_same_bits(run(), want);
  });
}

// --- Eq. (4) lattice inference: thread counts and the serial oracle -----

namespace oracle {

// nnq::LatticeModel::forces (its kCellBlock loop and
// scatter_lattice_forces) and nnq::xs_mixed_forces as they were before
// the inference moved onto the pool, copied with member access spelled
// out. The chunked path must reproduce them bit for bit.

constexpr std::size_t kCellBlock = 8192;

void scatter_lattice_forces(const FerroLattice& lat,
                            const mlmd::la::Matrix<double>& dedg, std::size_t row0,
                            std::size_t c0, std::size_t c1,
                            std::vector<Vec3>& f) {
  const std::size_t lx = lat.lx(), ly = lat.ly();
  for (std::size_t c = c0; c < c1; ++c) {
    const std::size_t x = c / ly, y = c % ly;
    const std::size_t xp = (x + 1) % lx, xm = (x + lx - 1) % lx;
    const std::size_t yp = (y + 1) % ly, ym = (y + ly - 1) % ly;
    const double* gi = dedg.row(row0 + (c - c0));
    const auto& ui = lat.u(x, y);
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

std::vector<Vec3> lattice_forces(const mlmd::nnq::LatticeModel& model,
                                 const FerroLattice& lat) {
  const std::size_t lx = lat.lx(), ly = lat.ly();
  std::vector<Vec3> f(lx * ly, Vec3{0, 0, 0});
  std::vector<double> feat;
  mlmd::la::Matrix<double> feats, dedg;

  for (std::size_t c0 = 0; c0 < lx * ly; c0 += kCellBlock) {
    const std::size_t c1 = std::min(c0 + kCellBlock, lx * ly);
    feats.resize(c1 - c0, mlmd::nnq::kLatticeFeatures);
    for (std::size_t c = c0; c < c1; ++c) {
      mlmd::nnq::lattice_features(lat, c / ly, c % ly, feat);
      std::copy(feat.begin(), feat.end(), feats.row(c - c0));
    }
    model.net().grad_input_batch(feats, dedg);
    scatter_lattice_forces(lat, dedg, 0, c0, c1, f);
  }
  return f;
}

std::vector<Vec3> xs_mixed_forces(const mlmd::nnq::LatticeModel& gs,
                                  const mlmd::nnq::LatticeModel& xs,
                                  const FerroLattice& lat, double n_exc,
                                  double n_sat) {
  const double w = mlmd::nnq::excitation_weight(n_exc, n_sat);
  auto fg = lattice_forces(gs, lat);
  auto fx = lattice_forces(xs, lat);
  for (std::size_t i = 0; i < fg.size(); ++i)
    for (int k = 0; k < 3; ++k)
      fg[i][static_cast<std::size_t>(k)] =
          (1.0 - w) * fg[i][static_cast<std::size_t>(k)] +
          w * fx[i][static_cast<std::size_t>(k)];
  return fg;
}

} // namespace oracle

/// Lattices for the 256-cell inference chunks: a 2 x 37 strip, whose
/// x neighbours coincide (xp == xm); a 9 x 13 lattice smaller than one
/// chunk; and a 70 x 131 lattice of 36 chunks with a 210-cell tail, also
/// past the oracle's 8192-cell block so its own block loop splits.
std::vector<mlmd::ferro::FerroLattice> inference_lattices() {
  std::vector<mlmd::ferro::FerroLattice> lats;
  for (const auto& [lx, ly] : {std::pair<std::size_t, std::size_t>{2, 37},
                               {9, 13}, {70, 131}}) {
    mlmd::ferro::FerroLattice lat(lx, ly);
    std::vector<mlmd::ferro::Vec3> u(lat.ncells());
    for (std::size_t i = 0; i < lat.ncells(); ++i) {
      const double s = static_cast<double>(i + lx);
      u[i] = {0.4 * std::sin(0.37 * s), 0.4 * std::cos(0.23 * s),
              0.6 + 0.2 * std::cos(0.051 * s)};
    }
    lat.set_u_cells(u);
    lats.push_back(std::move(lat));
  }
  return lats;
}

void expect_same_forces(const std::vector<mlmd::ferro::Vec3>& got,
                        const std::vector<mlmd::ferro::Vec3>& want) {
  expect_same_bits(as_doubles(got.data(), got.size()),
                   as_doubles(want.data(), want.size()));
}

TEST(ThreadPoolKernels, LatticeForcesMatchSerialOracleAtEveryThreadCount) {
  GlobalPoolGuard guard;
  using mlmd::ferro::Vec3;
  const mlmd::nnq::LatticeModel gs({12, 12}, 5), xs({12, 12}, 6);
  const auto lats = inference_lattices();
  std::vector<const mlmd::ferro::FerroLattice*> ptrs;
  for (const auto& l : lats) ptrs.push_back(&l);
  // w = 0, 0.65 and 1 (clamped).
  const std::vector<double> n_exc = {0.0, 0.013, 0.5};
  const std::vector<double> n_sat(lats.size(), 0.02);

  ThreadPool::set_global_threads(1);
  std::vector<std::vector<Vec3>> want_gs, want_mix;
  std::uint64_t flops_gs = 0, flops_mix = 0;
  for (std::size_t i = 0; i < lats.size(); ++i) {
    const mlmd::flops::Scope fl_gs;
    want_gs.push_back(oracle::lattice_forces(gs, lats[i]));
    flops_gs += fl_gs.flops();
    const mlmd::flops::Scope fl_mix;
    want_mix.push_back(oracle::xs_mixed_forces(gs, xs, lats[i], n_exc[i], n_sat[i]));
    flops_mix += fl_mix.flops();
  }

  auto& launches = mlmd::obs::Registry::global().counter("pool.launches");
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool::set_global_threads(threads);
    const auto before = launches.value();
    {
      const mlmd::flops::Scope fl;
      const auto got = mlmd::nnq::xs_mixed_forces_multi(gs, xs, ptrs, n_exc, n_sat);
      EXPECT_EQ(fl.flops(), flops_mix);
      ASSERT_EQ(got.size(), lats.size());
      for (std::size_t i = 0; i < lats.size(); ++i) expect_same_forces(got[i], want_mix[i]);
    }
    std::uint64_t one_gs = 0, one_mix = 0;
    for (std::size_t i = 0; i < lats.size(); ++i) {
      const mlmd::flops::Scope fl_gs;
      expect_same_forces(gs.forces(lats[i]), want_gs[i]);
      one_gs += fl_gs.flops();
      const mlmd::flops::Scope fl_mix;
      expect_same_forces(
          mlmd::nnq::xs_mixed_forces(gs, xs, lats[i], n_exc[i], n_sat[i]),
          want_mix[i]);
      one_mix += fl_mix.flops();
    }
    EXPECT_EQ(one_gs, flops_gs);
    EXPECT_EQ(one_mix, flops_mix);
    if (threads > 1) {
      EXPECT_GT(launches.value(), before);
    }
  }
}

} // namespace
