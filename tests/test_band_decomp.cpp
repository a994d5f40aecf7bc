// Tests for the hybrid band decomposition: distributed orbital-space
// operations, band-parallel propagation and the BandParallelDomain over
// SimComm must reproduce the serial results.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "mlmd/common/rng.hpp"
#include "mlmd/la/gemm.hpp"
#include "mlmd/la/ortho.hpp"
#include "mlmd/lfd/band_decomp.hpp"
#include "mlmd/lfd/band_domain.hpp"
#include "mlmd/lfd/density.hpp"
#include "mlmd/lfd/domain.hpp"
#include "mlmd/lfd/nlp_prop.hpp"
#include "mlmd/lfd/propagator.hpp"
#include "mlmd/lfd/vloc.hpp"

namespace {

using namespace mlmd;
using namespace mlmd::lfd;
using cd = std::complex<double>;

la::Matrix<cd> random_psi(std::size_t ngrid, std::size_t norb, unsigned long long seed) {
  mlmd::Rng rng(seed);
  la::Matrix<cd> psi(ngrid, norb);
  for (std::size_t i = 0; i < psi.size(); ++i)
    psi.data()[i] = cd(rng.normal(), rng.normal());
  return psi;
}

la::Matrix<cd> slice_cols(const la::Matrix<cd>& m, std::size_t c0, std::size_t c1) {
  la::Matrix<cd> s(m.rows(), c1 - c0);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = c0; c < c1; ++c) s(r, c - c0) = m(r, c);
  return s;
}

TEST(BandLayout, SplitCoversAllOrbitals) {
  for (int p = 1; p <= 5; ++p) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (int r = 0; r < p; ++r) {
      auto [s0, s1] = BandLayout::slice_of(r, p, 10);
      EXPECT_EQ(s0, prev_end);
      EXPECT_GE(s1, s0);
      covered += s1 - s0;
      prev_end = s1;
    }
    EXPECT_EQ(covered, 10u);
  }
}

TEST(BandLayout, NearEqualSlices) {
  auto [a0, a1] = BandLayout::slice_of(0, 3, 10); // 4
  auto [b0, b1] = BandLayout::slice_of(2, 3, 10); // 3
  EXPECT_EQ(a1 - a0, 4u);
  EXPECT_EQ(b1 - b0, 3u);
  (void)b0;
  (void)a0;
}

class BandSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandSweep, DistributedOverlapMatchesSerial) {
  const int nranks = GetParam();
  const std::size_t ngrid = 64, norb = 7;
  const double dv = 0.3;
  auto a = random_psi(ngrid, norb, 1);
  auto b = random_psi(ngrid, norb, 2);

  la::Matrix<cd> serial(norb, norb);
  la::gemm(la::Trans::kC, la::Trans::kN, cd(dv, 0.0), a, b, cd{}, serial);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto a_slice = slice_cols(a, layout.s0, layout.s1);
    auto b_slice = slice_cols(b, layout.s0, layout.s1);
    auto s = distributed_overlap(comm, layout, a_slice, b_slice, dv);
    EXPECT_LT(la::max_abs_diff(s, serial), 1e-11);
  });
}

TEST_P(BandSweep, DistributedLowdinMatchesSerial) {
  const int nranks = GetParam();
  const std::size_t ngrid = 48, norb = 6;
  const double dv = 0.2;
  auto psi = random_psi(ngrid, norb, 3);

  auto serial = psi;
  la::lowdin_orthonormalize(serial, dv);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_lowdin(comm, layout, my, dv);
    auto expect = slice_cols(serial, layout.s0, layout.s1);
    EXPECT_LT(la::max_abs_diff(my, expect), 1e-9);
  });
}

TEST_P(BandSweep, DistributedNlpPropMatchesSerial) {
  const int nranks = GetParam();
  const grid::Grid3 g{4, 4, 4, 0.6, 0.6, 0.6};
  const std::size_t norb = 6;
  SoAWave<double> serial_wave(g, norb);
  init_plane_waves(serial_wave);
  auto psi0 = serial_wave.psi;
  // Perturb so the correction is nontrivial.
  mlmd::Rng rng(4);
  for (std::size_t i = 0; i < serial_wave.psi.size(); ++i)
    serial_wave.psi.data()[i] += cd(0.01 * rng.normal(), 0.01 * rng.normal());
  auto psi_t = serial_wave.psi;

  const cd delta(0.0, -0.03);
  nlp_prop(serial_wave, psi0, delta);

  par::run(nranks, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my_psi = slice_cols(psi_t, layout.s0, layout.s1);
    auto my_psi0 = slice_cols(psi0, layout.s0, layout.s1);
    distributed_nlp_prop(comm, layout, g, my_psi, my_psi0, delta);
    auto expect = slice_cols(serial_wave.psi, layout.s0, layout.s1);
    EXPECT_LT(la::max_abs_diff(my_psi, expect), 1e-10);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, BandSweep, ::testing::Values(1, 2, 3, 4));

TEST(BandDecomp, PrefetchedRingBitIdenticalToUnprefetched) {
  // ring_prefetch posts the round-0 slice transfer before the caller's
  // stencil work, and distributed_nlp_prop adopts it as the ring's first
  // round. Transfer order and payloads are the same as without the
  // prefetch, so the propagated slices must be bit-identical, not merely
  // close.
  const grid::Grid3 g{4, 4, 4, 0.6, 0.6, 0.6};
  const std::size_t norb = 6;
  constexpr int kRanks = 3;
  SoAWave<double> wave(g, norb);
  init_plane_waves(wave);
  auto psi0 = wave.psi;
  mlmd::Rng rng(11);
  for (std::size_t i = 0; i < wave.psi.size(); ++i)
    wave.psi.data()[i] += cd(0.01 * rng.normal(), 0.01 * rng.normal());
  auto psi_t = wave.psi;
  const cd delta(0.0, -0.03);

  auto run_ring = [&](bool prefetch) {
    std::vector<la::Matrix<cd>> out(kRanks);
    par::run(kRanks, [&](par::Comm& comm) {
      auto layout = BandLayout::split(comm, norb);
      auto my_psi = slice_cols(psi_t, layout.s0, layout.s1);
      auto my_psi0 = slice_cols(psi0, layout.s0, layout.s1);
      RingPrefetch pre;
      if (prefetch) {
        pre = ring_prefetch(comm, my_psi0);
        EXPECT_TRUE(pre.active);
      }
      distributed_nlp_prop(comm, layout, g, my_psi, my_psi0, delta,
                           prefetch ? &pre : nullptr);
      EXPECT_FALSE(pre.active); // the ring consumed the prefetch
      out[static_cast<std::size_t>(comm.rank())] = std::move(my_psi);
    });
    return out;
  };
  const auto plain = run_ring(false);
  const auto prefetched = run_ring(true);
  for (int r = 0; r < kRanks; ++r) {
    const auto& a = plain[static_cast<std::size_t>(r)];
    const auto& b = prefetched[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size()) << "rank " << r;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a.data()[i], b.data()[i]) << "rank " << r << " elem " << i;
  }
}

TEST(BandDecomp, RingTrafficScalesWithRanks) {
  const std::size_t ngrid = 32, norb = 8;
  auto psi = random_psi(ngrid, norb, 5);
  auto traffic2 = par::run(2, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_overlap(comm, layout, my, my, 0.1);
  });
  auto traffic4 = par::run(4, [&](par::Comm& comm) {
    auto layout = BandLayout::split(comm, norb);
    auto my = slice_cols(psi, layout.s0, layout.s1);
    distributed_overlap(comm, layout, my, my, 0.1);
  });
  // More ranks -> more ring messages.
  EXPECT_GT(traffic4.messages, traffic2.messages);
}

// --- distributed density & band-parallel propagation ------------------------

TEST(BandParallel, DistributedDensityMatchesSerial) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  lfd::SoAWave<double> w(g, 6);
  lfd::init_plane_waves(w);
  std::vector<double> f = {2.0, 2.0, 1.0, 0.5, 0.0, 0.0};
  auto rho_serial = lfd::density(w, f);

  par::run(3, [&](par::Comm& comm) {
    auto layout = lfd::BandLayout::split(comm, 6);
    la::Matrix<std::complex<double>> slice(g.size(), layout.nlocal());
    std::vector<double> f_slice;
    for (std::size_t gp = 0; gp < g.size(); ++gp)
      for (std::size_t s = layout.s0; s < layout.s1; ++s)
        slice(gp, s - layout.s0) = w.at(gp, s);
    for (std::size_t s = layout.s0; s < layout.s1; ++s) f_slice.push_back(f[s]);
    auto rho = lfd::distributed_density(comm, slice, f_slice);
    ASSERT_EQ(rho.size(), rho_serial.size());
    for (std::size_t i = 0; i < rho.size(); ++i)
      EXPECT_NEAR(rho[i], rho_serial[i], 1e-12);
  });
}

TEST(BandParallel, PropagationMatchesSerialDomain) {
  // Full integration: propagate band-distributed orbitals (grid-local
  // kinetic/potential on slices + distributed nonlocal correction) and
  // compare the final density against the serial propagation.
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  const std::size_t norb = 4;
  lfd::SoAWave<double> serial(g, norb);
  lfd::init_plane_waves(serial);
  auto psi0 = serial.psi;
  std::vector<double> vloc(g.size());
  for (std::size_t i = 0; i < vloc.size(); ++i) vloc[i] = 0.1 * std::cos(0.3 * i);
  std::vector<double> f = {2.0, 2.0, 0.0, 0.0};

  lfd::KinParams kin;
  kin.dt = 0.05;
  const std::complex<double> delta(0.0, -0.02);
  const int nsteps = 5;
  for (int step = 0; step < nsteps; ++step) {
    lfd::split_step(serial, vloc, kin, lfd::PropOrder::kSecond,
                    lfd::KinVariant::kReordered);
    lfd::nlp_prop(serial, psi0, delta);
  }
  auto rho_serial = lfd::density(serial, f);

  par::run(2, [&](par::Comm& comm) {
    auto layout = lfd::BandLayout::split(comm, norb);
    // Build this rank's slice as a wavefunction with nlocal orbitals so
    // the grid-local kernels run unchanged on it.
    lfd::SoAWave<double> wslice(g, layout.nlocal());
    la::Matrix<std::complex<double>> psi0_slice(g.size(), layout.nlocal());
    lfd::SoAWave<double> init(g, norb);
    lfd::init_plane_waves(init);
    std::vector<double> f_slice;
    for (std::size_t gp = 0; gp < g.size(); ++gp)
      for (std::size_t s = layout.s0; s < layout.s1; ++s) {
        wslice.at(gp, s - layout.s0) = init.at(gp, s);
        psi0_slice(gp, s - layout.s0) = init.at(gp, s);
      }
    for (std::size_t s = layout.s0; s < layout.s1; ++s) f_slice.push_back(f[s]);

    for (int step = 0; step < nsteps; ++step) {
      lfd::split_step(wslice, vloc, kin, lfd::PropOrder::kSecond,
                      lfd::KinVariant::kReordered);
      lfd::distributed_nlp_prop(comm, layout, g, wslice.psi, psi0_slice, delta);
    }
    auto rho = lfd::distributed_density(comm, wslice.psi, f_slice);
    for (std::size_t i = 0; i < rho.size(); ++i)
      EXPECT_NEAR(rho[i], rho_serial[i], 1e-9);
  });
}

TEST(BandLayout, MoreRanksThanOrbitalsGivesEmptySlices) {
  // 5 ranks, 3 orbitals: two ranks own nothing; all distributed ops must
  // still agree with the serial result.
  const std::size_t ngrid = 27, norb = 3;
  mlmd::Rng rng(3);
  la::Matrix<std::complex<double>> psi(ngrid, norb);
  for (std::size_t i = 0; i < psi.size(); ++i)
    psi.data()[i] = std::complex<double>(rng.normal(), rng.normal());
  la::Matrix<std::complex<double>> serial(norb, norb);
  la::gemm(la::Trans::kC, la::Trans::kN, std::complex<double>(0.1, 0.0), psi, psi,
           std::complex<double>{}, serial);

  par::run(5, [&](par::Comm& comm) {
    auto layout = lfd::BandLayout::split(comm, norb);
    la::Matrix<std::complex<double>> slice(ngrid, layout.nlocal());
    for (std::size_t g = 0; g < ngrid; ++g)
      for (std::size_t s = layout.s0; s < layout.s1; ++s)
        slice(g, s - layout.s0) = psi(g, s);
    auto s = lfd::distributed_overlap(comm, layout, slice, slice, 0.1);
    EXPECT_LT(la::max_abs_diff(s, serial), 1e-11);
  });
}

// --- BandParallelDomain --------------------------------------------------------

class BandDomainSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandDomainSweep, MatchesSerialLfdDomainPhysics) {
  const int nranks = GetParam();
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  const std::size_t norb = 6, nfilled = 3;
  auto vloc = lfd::ionic_potential(
      g, {{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.5, 2.0}});

  // Serial reference with the identical configuration (no init relax, no
  // self-consistency: the band domain drives a static potential).
  lfd::LfdOptions sopt;
  sopt.dt_qd = 0.05;
  sopt.nlp_every = 4;
  sopt.self_consistent = false;
  sopt.init_relax_steps = 0;
  sopt.kin_variant = lfd::KinVariant::kReordered;
  lfd::SoAWave<double> ref(g, norb);
  lfd::init_plane_waves(ref);
  la::lowdin_orthonormalize(ref.psi, g.dv());
  auto psi0 = ref.psi;
  std::vector<double> f(norb, 0.0);
  for (std::size_t s = 0; s < nfilled; ++s) f[s] = 2.0;
  const double a[3] = {0.0, 0.4, 0.0};
  for (int step = 1; step <= 8; ++step) {
    lfd::vloc_prop(ref, vloc, 0.025);
    lfd::KinParams kp;
    kp.dt = 0.05;
    kp.a[1] = 0.4;
    lfd::kin_prop(ref, kp, lfd::KinVariant::kReordered);
    lfd::vloc_prop(ref, vloc, 0.025);
    if (step % 4 == 0)
      lfd::nlp_prop(ref, psi0, std::complex<double>(0.0, -0.02) * (0.05 * 4.0));
  }
  auto rho_ref = lfd::density(ref, f);

  par::run(nranks, [&](par::Comm& comm) {
    lfd::BandDomainOptions opt;
    opt.dt_qd = 0.05;
    opt.nlp_every = 4;
    lfd::BandParallelDomain dom(comm, g, norb, nfilled, vloc, opt);
    for (int step = 0; step < 8; ++step) dom.qd_step(a);
    auto rho = dom.density_field();
    ASSERT_EQ(rho.size(), rho_ref.size());
    for (std::size_t i = 0; i < rho.size(); ++i)
      EXPECT_NEAR(rho[i], rho_ref[i], 1e-9) << i;
    EXPECT_GE(dom.n_exc(), 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, BandDomainSweep, ::testing::Values(1, 2, 3));

TEST(BandDomain, NexcGrowsUnderDriving) {
  grid::Grid3 g{6, 6, 6, 0.6, 0.6, 0.6};
  auto vloc = lfd::ionic_potential(
      g, {{0.5 * g.lx(), 0.5 * g.ly(), 0.5 * g.lz(), 2.0, 1.5, 2.0}});
  par::run(2, [&](par::Comm& comm) {
    lfd::BandParallelDomain dom(comm, g, 4, 2, vloc);
    const double n0 = dom.n_exc();
    for (int s = 0; s < 20; ++s) {
      double a[3] = {0.0, 1.0 * std::sin(0.4 * s), 0.0};
      dom.qd_step(a);
    }
    EXPECT_GE(dom.n_exc(), n0);
  });
}

} // namespace
