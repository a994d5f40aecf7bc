// Tests for the SimComm message-passing substrate: collectives, tagged
// point-to-point, nonblocking handles, traffic metering, error
// propagation.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/simcomm.hpp"

namespace {

using namespace mlmd::par;
namespace ft = mlmd::ft;

TEST(SimComm, SingleRankRuns) {
  int visited = 0;
  run(1, [&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    ++visited;
  });
  EXPECT_EQ(visited, 1);
}

TEST(SimComm, BarrierSynchronizes) {
  const int nranks = 8;
  std::atomic<int> before{0}, after_ok{0};
  run(nranks, [&](Comm& c) {
    before.fetch_add(1);
    c.barrier();
    // After the barrier every rank must see all arrivals.
    if (before.load() == nranks) after_ok.fetch_add(1);
  });
  EXPECT_EQ(after_ok.load(), nranks);
}

TEST(SimComm, RepeatedBarriers) {
  run(4, [&](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(SimComm, Broadcast) {
  run(5, [&](Comm& c) {
    std::vector<int> data;
    if (c.rank() == 2) data = {10, 20, 30};
    c.broadcast(data, 2);
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[1], 20);
  });
}

TEST(SimComm, GatherOrdersByRank) {
  run(6, [&](Comm& c) {
    auto got = c.gather(c.rank() * 10, 0);
    if (c.rank() == 0) {
      ASSERT_EQ(got.size(), 6u);
      for (int r = 0; r < 6; ++r) EXPECT_EQ(got[static_cast<size_t>(r)], r * 10);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(SimComm, Allgather) {
  run(4, [&](Comm& c) {
    auto got = c.allgather(static_cast<double>(c.rank()));
    ASSERT_EQ(got.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(got[static_cast<size_t>(r)], r);
  });
}

TEST(SimComm, AllgathervVariableSizes) {
  run(3, [&](Comm& c) {
    std::vector<int> mine(static_cast<size_t>(c.rank()) + 1, c.rank());
    auto got = c.allgatherv(std::span<const int>(mine));
    ASSERT_EQ(got.size(), 6u); // 1 + 2 + 3
    EXPECT_EQ(got[0], 0);
    EXPECT_EQ(got[1], 1);
    EXPECT_EQ(got[3], 2);
  });
}

TEST(SimComm, AllreduceSumMinMax) {
  run(7, [&](Comm& c) {
    EXPECT_EQ(c.allreduce(1, ReduceOp::kSum), 7);
    EXPECT_EQ(c.allreduce(c.rank(), ReduceOp::kMin), 0);
    EXPECT_EQ(c.allreduce(c.rank(), ReduceOp::kMax), 6);
  });
}

TEST(SimComm, AllreduceVector) {
  run(4, [&](Comm& c) {
    std::vector<double> v = {1.0, static_cast<double>(c.rank())};
    auto r = c.allreduce(std::span<const double>(v), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(r[0], 4.0);
    EXPECT_DOUBLE_EQ(r[1], 6.0);
  });
}

TEST(SimComm, SendRecvRing) {
  run(5, [&](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<int> payload = {c.rank(), c.rank() * 2};
    c.send(next, /*tag=*/0, std::span<const int>(payload));
    auto got = c.recv<int>(prev, /*tag=*/0);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev);
    EXPECT_EQ(got[1], prev * 2);
  });
}

TEST(SimComm, TaggedMessagesKeptSeparate) {
  run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {111}, b = {222};
      c.send(1, /*tag=*/7, std::span<const int>(a));
      c.send(1, /*tag=*/8, std::span<const int>(b));
    } else {
      // Receive in reverse tag order: matching must be by tag, not FIFO.
      auto b = c.recv<int>(0, 8);
      auto a = c.recv<int>(0, 7);
      EXPECT_EQ(a[0], 111);
      EXPECT_EQ(b[0], 222);
    }
  });
}

TEST(SimComm, MessageOrderPreservedPerTag) {
  run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v = {i};
        c.send(1, 0, std::span<const int>(v));
      }
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv<int>(0, 0)[0], i);
    }
  });
}

TEST(SimComm, TrafficStatsCountBytes) {
  auto stats = run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v(100, 1.0);
      c.send(1, 0, std::span<const double>(v));
    } else {
      c.recv<double>(0, 0);
    }
    c.allgather(c.rank());
  });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.p2p_bytes, 800u);
  EXPECT_EQ(stats.collective_ops, 2u); // one allgather per rank
  EXPECT_EQ(stats.collective_bytes, 2u * sizeof(int));
}

TEST(SimComm, ExceptionPropagates) {
  EXPECT_THROW(run(3,
                   [&](Comm& c) {
                     if (c.rank() == 1) throw std::runtime_error("rank 1 died");
                     // Other ranks must not deadlock waiting; they finish.
                   }),
               std::runtime_error);
}

TEST(SimComm, InvalidRankCountThrows) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(SimComm, SendToBadRankThrows) {
  EXPECT_THROW(run(1,
                   [&](Comm& c) {
                     std::vector<int> v = {1};
                     c.send(5, 0, std::span<const int>(v));
                   }),
               std::out_of_range);
}

TEST(SimComm, ManyRanksStress) {
  const int nranks = 32;
  auto stats = run(nranks, [&](Comm& c) {
    for (int i = 0; i < 5; ++i) {
      auto s = c.allreduce(1, ReduceOp::kSum);
      EXPECT_EQ(s, nranks);
      c.barrier();
    }
  });
  EXPECT_GT(stats.collective_ops, 0u);
}

TEST(SimComm, BackToBackCollectivesNoCrosstalk) {
  run(4, [&](Comm& c) {
    for (int round = 0; round < 20; ++round) {
      auto got = c.allgather(c.rank() + round * 100);
      for (int r = 0; r < 4; ++r)
        EXPECT_EQ(got[static_cast<size_t>(r)], r + round * 100);
    }
  });
}

// --- collectives, tagged p2p, nonblocking handles, error taxonomy ----------

// Gather each rank's verdict to rank 0 and count failures there, so one
// EXPECT on the caller covers every rank.
int count_rank_failures(Comm& c, bool ok, int* failures, std::mutex* mu) {
  auto flags = c.gather(ok ? 1 : 0, 0);
  if (c.rank() == 0) {
    std::lock_guard lk(*mu);
    for (int f : flags)
      if (!f) ++*failures;
  }
  return 0;
}

TEST(SimComm, CollectivesProduceIdenticalValuesOnEveryRank) {
  constexpr int kRanks = 4;
  int failures = 0;
  std::mutex mu;
  run(kRanks, [&](Comm& c) {
    const int r = c.rank();
    c.barrier();

    std::vector<double> data(3, 0.0);
    if (r == 1) data = {1.0, 2.0, 3.0};
    c.broadcast(data, 1);
    bool ok = data == std::vector<double>{1.0, 2.0, 3.0};

    auto all = c.allgather(static_cast<double>(r) + 0.5);
    // 0.5 + 1.5 + 2.5 + 3.5
    ok = ok && std::accumulate(all.begin(), all.end(), 0.0) == 8.0;

    // kMax over identical per-rank vectors is the identity.
    auto red = c.allreduce(std::span<const double>(all), ReduceOp::kMax);
    ok = ok && red == all;

    auto got = c.gather(static_cast<double>(r), 0);
    if (r == 0) {
      ok = ok && got.size() == kRanks;
      for (int i = 0; ok && i < kRanks; ++i)
        ok = got[static_cast<std::size_t>(i)] == static_cast<double>(i);
    } else {
      ok = ok && got.empty();
    }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, AllgathervConcatenatesRankOrdered) {
  int failures = 0;
  std::mutex mu;
  run(3, [&](Comm& c) {
    // Rank r contributes r+1 ints of value r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    auto all = c.allgatherv(std::span<const int>(mine));
    const bool ok = all == std::vector<int>{0, 1, 1, 2, 2, 2};
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, TagsMatchOutOfArrivalOrder) {
  int failures = 0;
  std::mutex mu;
  run(2, [&](Comm& c) {
    bool ok = true;
    if (c.rank() == 0) {
      const std::array<int, 2> a{7, 70};
      const std::array<int, 2> b{3, 30};
      c.send(1, /*tag=*/7, std::span<const int>(a));
      c.send(1, /*tag=*/3, std::span<const int>(b));
    } else {
      // Receive in the opposite order of the sends: the transport must
      // buffer the tag-7 frame while the tag-3 recv is outstanding.
      auto b = c.recv<int>(0, 3);
      auto a = c.recv<int>(0, 7);
      ok = b == std::vector<int>{3, 30} && a == std::vector<int>{7, 70};
    }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, LargeCollectivePayloadArrivesIntact) {
  // 1.5 MiB of doubles per rank through one allgatherv: every element
  // must arrive at every rank exactly.
  constexpr std::size_t kN = 196608; // 1.5 MiB of doubles
  int failures = 0;
  std::mutex mu;
  run(2, [&](Comm& c) {
    std::vector<double> mine(kN);
    for (std::size_t i = 0; i < kN; ++i)
      mine[i] = static_cast<double>(c.rank() * 1000) + static_cast<double>(i % 997);
    auto all = c.allgatherv(std::span<const double>(mine));
    bool ok = all.size() == 2 * kN;
    for (std::size_t r = 0; ok && r < 2; ++r)
      for (std::size_t i = 0; i < kN; i += 131)
        if (all[r * kN + i] !=
            static_cast<double>(r * 1000) + static_cast<double>(i % 997)) {
          ok = false;
          break;
        }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, LargeP2PPayloadArrivesIntact) {
  // 256 KiB in one tagged message must arrive intact.
  constexpr std::size_t kN = 32768; // 256 KiB of doubles
  int failures = 0;
  std::mutex mu;
  run(2, [&](Comm& c) {
    bool ok = true;
    if (c.rank() == 0) {
      std::vector<double> big(kN);
      for (std::size_t i = 0; i < kN; ++i) big[i] = static_cast<double>(i) * 0.5;
      c.send(1, /*tag=*/11, std::span<const double>(big));
    } else {
      auto big = c.recv<double>(0, 11);
      ok = big.size() == kN;
      for (std::size_t i = 0; ok && i < kN; ++i)
        if (big[i] != static_cast<double>(i) * 0.5) ok = false;
    }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, OriginErrorTypeAndMessageReachTheCaller) {
  // The first-throwing rank's exception reaches the caller with its type
  // and exact message.
  try {
    run(3, [](Comm& c) {
      c.barrier();
      if (c.rank() == 2) throw std::out_of_range("boom-42");
      c.barrier();
      c.barrier();
    });
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "boom-42");
  }
}

TEST(SimComm, InjectedCrashKeepsItsType) {
  // rank_crash fires inside a rank thread; the InjectedCrash type must
  // survive the trip to the caller.
  ft::ScopedFaults faults("rank_crash@rank=1");
  EXPECT_THROW(run(3,
                   [](Comm& c) {
                     auto x = c.allgather(c.rank());
                     (void)x;
                   }),
               ft::InjectedCrash);
}

TEST(SimComm, AbortPoisonsBlockedPeers) {
  // Rank 0 never participates in the collective; peers blocked inside it
  // must be released by the abort poison rather than deadlock, and the
  // caller sees the origin error, not a victim's induced abort.
  try {
    run(3, [](Comm& c) {
      if (c.rank() == 0) throw std::runtime_error("origin failure");
      auto x = c.allgather(c.rank()); // blocks until poisoned
      (void)x;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "origin failure");
  }
}

TEST(SimComm, TrafficStatsCountEveryOp) {
  const RunStats st = run(2, [](Comm& c) {
    c.barrier();
    auto a = c.allgather(1.0);
    if (c.rank() == 0) {
      const std::array<int, 4> m{1, 2, 3, 4};
      c.send(1, 0, std::span<const int>(m));
    } else {
      auto m = c.recv<int>(0, 0);
      (void)m;
    }
    (void)a;
  });
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.p2p_bytes, 16u);
  // One allgather with both ranks contributing (barrier is not an
  // exchange, so it never counts as a collective op).
  EXPECT_EQ(st.collective_ops, 2u);
  EXPECT_EQ(st.collective_bytes, 16u); // two 8-byte allgather contributions
  // run() also returns every rank's own account, read after the join.
  ASSERT_EQ(st.ranks.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const auto& ops = st.ranks[static_cast<std::size_t>(r)].ops;
    EXPECT_EQ(ops.at("barrier").calls, 1u) << "rank " << r;
    EXPECT_EQ(ops.at("allgatherv").bytes, 8u) << "rank " << r;
    EXPECT_EQ(ops.at(r == 0 ? "send" : "recv").bytes, 16u) << "rank " << r;
  }
}

// --- nonblocking conformance -----------------------------------------------

TEST(SimComm, NonblockingCompletesOutOfPostingOrder) {
  int failures = 0;
  std::mutex mu;
  run(2, [&](Comm& c) {
    bool ok = true;
    if (c.rank() == 0) {
      const std::array<int, 2> a{7, 70};
      const std::array<int, 2> b{3, 30};
      auto ha = c.isend(1, /*tag=*/7, std::span<const int>(a));
      auto hb = c.isend(1, /*tag=*/3, std::span<const int>(b));
      ha.wait();
      hb.wait();
    } else {
      // Post both receives, then complete them in the opposite order of
      // their posting: handles are independent and tag-matched, so the
      // tag-7 frame must sit buffered while the tag-3 handle completes.
      auto h7 = c.irecv(0, 7);
      auto h3 = c.irecv(0, 3);
      auto b = c.wait<int>(h3);
      auto a = c.wait<int>(h7);
      ok = b == std::vector<int>{3, 30} && a == std::vector<int>{7, 70};
    }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, ConcurrentHandlesMatchTagsExactly) {
  // A burst of in-flight isend/irecv pairs per direction, completed in
  // reverse posting order: every payload must land on the handle whose
  // tag it carries, never on the earliest-posted one.
  constexpr int kMsgs = 8;
  int failures = 0;
  std::mutex mu;
  run(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::vector<int>> payloads(kMsgs);
    std::vector<CommHandle> sends, recvs;
    for (int t = 0; t < kMsgs; ++t) {
      payloads[static_cast<std::size_t>(t)]
          .assign(static_cast<std::size_t>(16 + t), c.rank() * 100 + t);
      sends.push_back(c.isend(
          peer, t,
          std::span<const int>(payloads[static_cast<std::size_t>(t)])));
      recvs.push_back(c.irecv(peer, t));
    }
    bool ok = true;
    for (int t = kMsgs - 1; t >= 0; --t) {
      auto got = c.wait<int>(recvs[static_cast<std::size_t>(t)]);
      ok = ok && got == std::vector<int>(static_cast<std::size_t>(16 + t),
                                         peer * 100 + t);
    }
    for (auto& h : sends) h.wait();
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, SplitPhaseAllgathervMatchesBlocking) {
  int failures = 0;
  std::mutex mu;
  run(3, [&](Comm& c) {
    // Same body as AllgathervConcatenatesRankOrdered, but split-phase:
    // the contribution is deposited at post, deterministic "interior"
    // compute runs while peers assemble, wait() returns the full result.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    auto h = c.iallgatherv(std::span<const int>(mine));
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) acc += std::sqrt(static_cast<double>(i));
    auto all = c.wait<int>(h);
    const bool ok = all == std::vector<int>{0, 1, 1, 2, 2, 2} && acc > 0.0;
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST(SimComm, WaitAfterAbortSurfacesOriginError) {
  // Rank 1 dies before ever sending; rank 0's wait() on the pending
  // irecv must be released by the abort poison, and the caller sees the
  // origin error type and message — same taxonomy as the blocking path.
  try {
    run(2, [](Comm& c) {
      if (c.rank() == 1) throw std::runtime_error("origin failure");
      auto h = c.irecv(1, 0);
      auto x = c.wait<double>(h); // blocks until poisoned
      (void)x;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "origin failure");
  }
}

TEST(SimComm, HandleAccountsBalanceAndMatchBlockingOps) {
  int failures = 0;
  std::mutex mu;
  const RunStats stats = run(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    const std::array<double, 8> halo{1, 2, 3, 4, 5, 6, 7, 8};
    auto hs = c.isend(peer, 1, std::span<const double>(halo));
    auto hr = c.irecv(peer, 1);
    std::vector<double> got;
    c.wait_into(hr, got);
    hs.wait();
    const bool ok = got == std::vector<double>(halo.begin(), halo.end());
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
  // Handle-leak invariant plus accounting parity: the nonblocking pair
  // meters the same op names and bytes as its blocking twins.
  ASSERT_EQ(stats.ranks.size(), 2u);
  for (const RankTraffic& mine : stats.ranks) {
    EXPECT_EQ(mine.handles_posted, 2u);
    EXPECT_EQ(mine.handles_completed, 2u);
    EXPECT_GE(mine.overlap_seconds, 0.0);
    for (const char* op : {"send", "recv"}) {
      const auto it = mine.ops.find(op);
      ASSERT_NE(it, mine.ops.end()) << op;
      EXPECT_EQ(it->second.bytes, 64u) << op;
      EXPECT_EQ(it->second.calls, 1u) << op;
    }
  }
}

TEST(SimComm, RankHistogramQuantilesReachTheRegistry) {
  // Only rank 1 observes; the caller's quantiles over the process
  // registry must see its samples, buckets included.
  constexpr double kSamples[] = {1.0, 2.0, 4.0, 8.0};
  auto& h = mlmd::obs::Registry::global().histogram("test.transport.rank1");
  h.reset();
  run(2, [&](Comm& c) {
    if (c.rank() == 1)
      for (const double x : kSamples) h.observe(x);
  });
  mlmd::obs::Histogram local;
  for (const double x : kSamples) local.observe(x);
  EXPECT_EQ(h.count(), 4u);
  for (const double q : {0.5, 0.95, 0.99})
    EXPECT_EQ(h.quantile(q), local.quantile(q)) << "q=" << q;
}

TEST(SimComm, AllreduceRejectsMismatchedLengths) {
  // Rank 0 contributes 3 elements and rank 1 one: the gathered total (4)
  // is not n x size() on either rank, so both reject the call instead of
  // folding past the end of the gathered buffer.
  EXPECT_THROW(run(2,
                   [](Comm& c) {
                     std::vector<double> v(c.rank() == 0 ? 3 : 1, 1.0);
                     auto r = c.allreduce(std::span<const double>(v),
                                          ReduceOp::kSum);
                     (void)r;
                   }),
               std::invalid_argument);
}

// --- peer death -----------------------------------------------------------

// A peer that dies mid-operation must resolve into a typed error at the
// survivors — never a hang. Ranks are threads of the test process, so
// the death is a fatal throw carrying a "killed by signal" message.

TEST(SimComm, PeerDeathMidCollectiveSurfacesTypedError) {
  try {
    run(3, [&](Comm& c) {
      if (c.rank() == 1)
        throw std::runtime_error("killed by signal 9 (simulated)");
      auto x = c.allgather(c.rank()); // blocks until the death is detected
      (void)x;
    });
    FAIL() << "expected the peer death to surface as a typed error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("killed by signal"),
              std::string::npos)
        << "got: " << e.what();
  }
}

TEST(SimComm, PeerDeathMidIrecvSurfacesTypedError) {
  try {
    run(2, [&](Comm& c) {
      if (c.rank() == 1)
        throw std::runtime_error("killed by signal 9 (simulated)");
      auto h = c.irecv(1, 0); // never satisfiable: the sender is dead
      auto x = c.wait<double>(h);
      (void)x;
    });
    FAIL() << "expected the peer death to surface as a typed error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("killed by signal"),
              std::string::npos)
        << "got: " << e.what();
  }
}

// --- reduce_combine unit checks (NaN poison propagation) -------------------

TEST(ReduceCombine, NanPropagatesThroughEveryOp) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (ReduceOp op : {ReduceOp::kSum, ReduceOp::kMin, ReduceOp::kMax}) {
    EXPECT_TRUE(std::isnan(detail::reduce_combine(nan, 1.0, op)));
    EXPECT_TRUE(std::isnan(detail::reduce_combine(1.0, nan, op)));
    EXPECT_TRUE(std::isnan(detail::reduce_combine(nan, nan, op)));
  }
  // Finite semantics are unchanged.
  EXPECT_DOUBLE_EQ(detail::reduce_combine(2.0, 3.0, ReduceOp::kSum), 5.0);
  EXPECT_DOUBLE_EQ(detail::reduce_combine(2.0, 3.0, ReduceOp::kMin), 2.0);
  EXPECT_DOUBLE_EQ(detail::reduce_combine(2.0, 3.0, ReduceOp::kMax), 3.0);
  // Integers never hit the NaN path.
  EXPECT_EQ(detail::reduce_combine(5, 2, ReduceOp::kMin), 2);
}

} // namespace
