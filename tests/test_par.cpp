// Tests for the SimComm message-passing substrate: collectives, tagged
// point-to-point, traffic metering, error propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mlmd/par/simcomm.hpp"

namespace {

using namespace mlmd::par;

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

} // namespace
