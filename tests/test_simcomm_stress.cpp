// SimComm concurrency stress tests: repeated mixed empty/non-empty
// collectives (the deposited-flag regression), exception-in-one-rank
// unwind (the poison/abort path that used to hang join()), and eager
// validation of point-to-point rank arguments.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "mlmd/par/simcomm.hpp"

namespace {

using namespace mlmd::par;

struct RankFailure {
  int rank;
};

TEST(SimCommStress, RepeatedMixedEmptyAndNonEmptyCollectives) {
  // Broadcasts interleave zero-byte contributions (every non-root rank)
  // with data-carrying ones; with the old contrib_[rank].empty() entry
  // signal a zero-byte depositor was indistinguishable from a free slot.
  const int nranks = 8;
  run(nranks, [&](Comm& c) {
    for (int round = 0; round < 60; ++round) {
      const int root = round % c.size();
      std::vector<int> data;
      if (c.rank() == root) data = {round, root, 42};
      c.broadcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], round);
      EXPECT_EQ(data[1], root);

      // Immediately chase with a gather (non-roots get empty results but
      // all ranks contribute bytes), then an allgather.
      auto gathered = c.gather(c.rank() + round, root);
      if (c.rank() == root) {
        ASSERT_EQ(gathered.size(), static_cast<std::size_t>(nranks));
        for (int r = 0; r < nranks; ++r)
          EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r + round);
      } else {
        EXPECT_TRUE(gathered.empty());
      }
      auto all = c.allgather(c.rank());
      ASSERT_EQ(all.size(), static_cast<std::size_t>(nranks));
    }
  });
}

TEST(SimCommStress, AllEmptyBroadcastStorm) {
  // Every rank (including the root) contributes zero bytes, back to back:
  // the pure worst case for the deposited-slot bookkeeping.
  run(6, [&](Comm& c) {
    for (int round = 0; round < 100; ++round) {
      std::vector<double> data; // empty at root too
      c.broadcast(data, round % c.size());
      EXPECT_TRUE(data.empty());
    }
  });
}

TEST(SimCommStress, ExceptionWhilePeersWaitInBarrier) {
  EXPECT_THROW(run(4,
                   [&](Comm& c) {
                     if (c.rank() == 2) throw RankFailure{2};
                     // Peers head straight into a barrier that rank 2
                     // will never reach; the poison must unwind them.
                     c.barrier();
                     c.barrier();
                   }),
               RankFailure);
}

TEST(SimCommStress, ExceptionWhilePeersWaitInCollective) {
  EXPECT_THROW(run(5,
                   [&](Comm& c) {
                     for (int round = 0;; ++round) {
                       if (c.rank() == 0 && round == 10)
                         throw std::logic_error("rank 0 gave up");
                       c.allreduce(c.rank() + round, ReduceOp::kSum);
                     }
                   }),
               std::logic_error);
}

TEST(SimCommStress, ExceptionWhilePeerWaitsInRecv) {
  EXPECT_THROW(run(2,
                   [&](Comm& c) {
                     if (c.rank() == 0) throw std::runtime_error("sender died");
                     c.recv<int>(0, 7); // message that will never arrive
                   }),
               std::runtime_error);
}

TEST(SimCommStress, OriginalErrorWinsOverInducedAborts) {
  try {
    run(6, [&](Comm& c) {
      if (c.rank() == 3) throw std::runtime_error("root cause");
      c.barrier();
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    // Victim ranks unwind with "SimComm aborted: ..." but the first
    // recorded error — the root cause — is what run() rethrows.
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(SimCommStress, GroupStateUsableAcrossManyAbortedRuns) {
  // Each run() builds fresh state; repeated aborts must neither hang nor
  // leak blocked threads.
  for (int i = 0; i < 20; ++i) {
    EXPECT_THROW(run(3,
                     [&](Comm& c) {
                       if (c.rank() == i % 3) throw RankFailure{c.rank()};
                       c.barrier();
                     }),
                 RankFailure);
  }
}

TEST(SimCommStress, RecvFromBadRankThrowsUpFront) {
  // An out-of-range source used to block forever; now it throws eagerly
  // (mirroring send's dst validation) and unwinds the peer via poison.
  EXPECT_THROW(run(2,
                   [&](Comm& c) {
                     if (c.rank() == 0) {
                       c.recv<int>(5, 0);
                     } else {
                       c.barrier(); // would hang without the poison
                     }
                   }),
               std::out_of_range);
  EXPECT_THROW(run(1, [&](Comm& c) { c.recv<int>(-1, 0); }), std::out_of_range);
}

TEST(SimCommStress, SelfSendAndSelfRecvRejected) {
  EXPECT_THROW(run(2,
                   [&](Comm& c) {
                     if (c.rank() == 0) {
                       std::vector<int> v = {1};
                       c.send(0, 0, std::span<const int>(v));
                     }
                   }),
               std::invalid_argument);
  EXPECT_THROW(run(2,
                   [&](Comm& c) {
                     if (c.rank() == 1) c.recv<int>(1, 0);
                   }),
               std::invalid_argument);
}

TEST(SimCommStress, MixedTrafficManyRanks) {
  // Collectives interleaved with a ring of tagged messages across enough
  // ranks to force heavy contention on the shared state.
  const int nranks = 16;
  auto stats = run(nranks, [&](Comm& c) {
    for (int round = 0; round < 10; ++round) {
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      std::vector<int> payload = {c.rank(), round};
      c.send(next, round, std::span<const int>(payload));
      auto got = c.recv<int>(prev, round);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], prev);
      EXPECT_EQ(got[1], round);

      std::vector<int> bc;
      if (c.rank() == round % c.size()) bc = {round};
      c.broadcast(bc, round % c.size());
      ASSERT_EQ(bc.size(), 1u);
      EXPECT_EQ(bc[0], round);

      EXPECT_EQ(c.allreduce(1, ReduceOp::kSum), nranks);
    }
  });
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(nranks) * 10);
}

} // namespace
