// Transport conformance suite (DESIGN.md Sec. 11): every test runs
// against BOTH SimComm backends — the in-process threaded GroupState and
// the forked shared-memory transport — via value parameterization, so the
// two implementations are held to one behavioural contract: collective
// results, out-of-order tag matching, payloads larger than the fixed shm
// staging areas (multi-round collectives, streamed p2p rings), error-type
// and message fidelity across process boundaries, fault hooks firing in
// child processes, and per-rank traffic accounts that are byte-identical
// whichever backend carried them.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
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
#include "mlmd/par/transport.hpp"

namespace {

using namespace mlmd::par;
namespace ft = mlmd::ft;

class TransportConformance : public ::testing::TestWithParam<TransportKind> {
protected:
  TransportKind kind() const { return GetParam(); }
  RunStats run_k(int nranks, const std::function<void(Comm&)>& body) {
    return run(nranks, kind(), body);
  }
};

// Gather each rank's verdict to rank 0 and count failures there. Under
// the shm backend non-zero ranks are forked children whose writes to
// test-local memory are invisible to the parent, so verdicts must travel
// through the transport itself; rank 0 is parent-hosted on both backends
// and its capture IS visible to gtest.
int count_rank_failures(Comm& c, bool ok, int* failures, std::mutex* mu) {
  auto flags = c.gather(ok ? 1 : 0, 0);
  if (c.rank() == 0) {
    std::lock_guard lk(*mu);
    for (int f : flags)
      if (!f) ++*failures;
  }
  return 0;
}

TEST_P(TransportConformance, CollectivesProduceIdenticalValuesOnEveryRank) {
  constexpr int kRanks = 4;
  int failures = 0;
  std::mutex mu;
  run_k(kRanks, [&](Comm& c) {
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

TEST_P(TransportConformance, AllgathervConcatenatesRankOrdered) {
  int failures = 0;
  std::mutex mu;
  run_k(3, [&](Comm& c) {
    // Rank r contributes r+1 ints of value r.
    std::vector<int> mine(static_cast<std::size_t>(c.rank()) + 1, c.rank());
    auto all = c.allgatherv(std::span<const int>(mine));
    const bool ok = all == std::vector<int>{0, 1, 1, 2, 2, 2};
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(TransportConformance, TagsMatchOutOfArrivalOrder) {
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
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

TEST_P(TransportConformance, CollectivePayloadLargerThanStagingArea) {
  // 1.5 MiB of doubles per rank exceeds the shm transport's 1 MiB
  // per-rank collective staging area, forcing the multi-round lockstep
  // path; inproc takes it in one shot. Results must agree exactly.
  constexpr std::size_t kN = 196608; // 1.5 MiB of doubles
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
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

TEST_P(TransportConformance, P2PPayloadLargerThanRing) {
  // 256 KiB through a 64 KiB shm ring: the sender must stream while the
  // receiver drains concurrently.
  constexpr std::size_t kN = 32768; // 256 KiB of doubles
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
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

TEST_P(TransportConformance, OriginErrorTypeAndMessageSurviveTheBackend) {
  // The first-throwing rank's exception reaches the caller with its type
  // and exact message — for shm that means crossing a process boundary
  // through the tagged error record.
  try {
    run_k(3, [](Comm& c) {
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

TEST_P(TransportConformance, InjectedCrashFiresInWorkerAndKeepsItsType) {
  // rank_crash arms in the parent; the shm backend's workers inherit the
  // armed plan across fork, so the ft hook must fire inside the child and
  // the InjectedCrash type must survive the trip back.
  ft::ScopedFaults faults("rank_crash@rank=1");
  EXPECT_THROW(run_k(3,
                     [](Comm& c) {
                       auto x = c.allgather(c.rank());
                       (void)x;
                     }),
               ft::InjectedCrash);
}

TEST_P(TransportConformance, AbortPoisonsBlockedPeers) {
  // Rank 0 never participates in the collective; peers blocked inside it
  // must be released by the abort poison rather than deadlock, and the
  // caller sees the origin error, not a victim's induced abort.
  try {
    run_k(3, [](Comm& c) {
      if (c.rank() == 0) throw std::runtime_error("origin failure");
      auto x = c.allgather(c.rank()); // blocks until poisoned
      (void)x;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "origin failure");
  }
}

TEST_P(TransportConformance, TrafficStatsCountEveryOp) {
  const RunStats st = run_k(2, [](Comm& c) {
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

TEST_P(TransportConformance, NonblockingCompletesOutOfPostingOrder) {
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
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

TEST_P(TransportConformance, ConcurrentHandlesMatchTagsExactly) {
  // A burst of in-flight isend/irecv pairs per direction, completed in
  // reverse posting order: every payload must land on the handle whose
  // tag it carries, never on the earliest-posted one.
  constexpr int kMsgs = 8;
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
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

TEST_P(TransportConformance, SplitPhaseAllgathervMatchesBlocking) {
  int failures = 0;
  std::mutex mu;
  run_k(3, [&](Comm& c) {
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

TEST_P(TransportConformance, WaitAfterAbortSurfacesOriginError) {
  // Rank 1 dies before ever sending; rank 0's wait() on the pending
  // irecv must be released by the abort poison, and the caller sees the
  // origin error type and message — same taxonomy as the blocking path.
  try {
    run_k(2, [](Comm& c) {
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

TEST_P(TransportConformance, HandleAccountsBalanceAndMatchBlockingOps) {
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    const std::array<double, 8> halo{1, 2, 3, 4, 5, 6, 7, 8};
    auto hs = c.isend(peer, 1, std::span<const double>(halo));
    auto hr = c.irecv(peer, 1);
    std::vector<double> got;
    c.wait_into(hr, got);
    hs.wait();
    const RankTraffic mine = c.rank_traffic();
    // Handle-leak invariant plus accounting parity: the nonblocking pair
    // meters the same op names and bytes as its blocking twins.
    bool ok = mine.handles_posted == 2 && mine.handles_completed == 2 &&
              mine.overlap_seconds >= 0.0;
    auto it_s = mine.ops.find("send");
    auto it_r = mine.ops.find("recv");
    ok = ok && it_s != mine.ops.end() && it_s->second.bytes == 64 &&
         it_s->second.calls == 1;
    ok = ok && it_r != mine.ops.end() && it_r->second.bytes == 64 &&
         it_r->second.calls == 1;
    ok = ok && got == std::vector<double>(halo.begin(), halo.end());
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(TransportConformance, WorkerRankHistogramQuantilesReachTheParent) {
  // Only rank 1 observes. Under shm it is a forked child, so its samples
  // reach the parent's registry only through the obs export, which must
  // carry the histogram buckets for the parent's quantiles to see them.
  constexpr double kSamples[] = {1.0, 2.0, 4.0, 8.0};
  auto& h = mlmd::obs::Registry::global().histogram("test.transport.rank1");
  h.reset();
  run_k(2, [&](Comm& c) {
    if (c.rank() == 1)
      for (const double x : kSamples) h.observe(x);
  });
  mlmd::obs::Histogram local;
  for (const double x : kSamples) local.observe(x);
  EXPECT_EQ(h.count(), 4u);
  for (const double q : {0.5, 0.95, 0.99})
    EXPECT_EQ(h.quantile(q), local.quantile(q)) << "q=" << q;
}

TEST_P(TransportConformance, RecvIntoReusesBufferAndSendrecvMatches) {
  // A send/recv_into halo exchange delivers the peer's payload and lands
  // it in the caller's typed buffer without reallocating it.
  int failures = 0;
  std::mutex mu;
  run_k(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<double> out;
    out.reserve(8);
    const double* cap = out.data();
    bool ok = true;
    for (int s = 0; s < 4; ++s) {
      std::array<double, 8> halo{};
      halo.fill(static_cast<double>(c.rank() * 10 + s));
      c.send(peer, s, std::span<const double>(halo));
      c.recv_into(peer, s, out);
      ok = ok && out.size() == 8 &&
           out.front() == static_cast<double>(peer * 10 + s);
      // The typed destination buffer must keep its storage once warm.
      ok = ok && out.data() == cap;
    }
    count_rank_failures(c, ok, &failures, &mu);
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(TransportConformance, AllreduceRejectsMismatchedLengths) {
  // Rank 0 contributes 3 elements and rank 1 one: the gathered total (4)
  // is not n x size() on either rank, so both reject the call instead of
  // folding past the end of the gathered buffer.
  EXPECT_THROW(run_k(2,
                     [](Comm& c) {
                       std::vector<double> v(c.rank() == 0 ? 3 : 1, 1.0);
                       auto r = c.allreduce(std::span<const double>(v),
                                            ReduceOp::kSum);
                       (void)r;
                     }),
               std::invalid_argument);
}

// --- peer death (SIGKILL) --------------------------------------------------

// A peer that dies without unwinding (SIGKILL: no destructors, no error
// record written) must still resolve into the tagged cross-process error
// taxonomy at the survivors — never a hang. Under shm, rank 1 is a
// forked child and really is SIGKILLed; the waitpid watchdog claims the
// error ("killed by signal 9") and poisons the group. Inproc ranks are
// threads of the test process, so the death is simulated by a fatal
// throw carrying the same message shape — the survivor-side contract
// (typed error, same text fragment) is identical either way.

TEST_P(TransportConformance, PeerSigkillMidCollectiveSurfacesTypedError) {
  try {
    run_k(3, [&](Comm& c) {
      if (c.rank() == 1) {
        if (kind() == TransportKind::kShm) std::raise(SIGKILL);
        throw std::runtime_error("killed by signal 9 (simulated)");
      }
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

TEST_P(TransportConformance, PeerSigkillMidIrecvSurfacesTypedError) {
  try {
    run_k(2, [&](Comm& c) {
      if (c.rank() == 1) {
        if (kind() == TransportKind::kShm) std::raise(SIGKILL);
        throw std::runtime_error("killed by signal 9 (simulated)");
      }
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

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kShm),
                         [](const auto& info) {
                           return std::string(transport_name(info.param));
                         });

// --- cross-backend identity ------------------------------------------------

// The same body over both backends must yield byte-identical per-rank
// accounts (calls and bytes; wait times are timing and may differ).
// Accounts ride a gather to rank 0 in a fixed op order — each rank
// samples its own counters first, so the shipping gather is excluded
// everywhere and the packed words are deterministic.
TEST(TransportIdentity, PerRankTrafficIdenticalAcrossBackends) {
  constexpr int kRanks = 3;
  constexpr const char* kOps[] = {"barrier",    "broadcast", "gather",
                                  "allgatherv", "allreduce", "send",
                                  "recv"};
  constexpr std::size_t kNumOps = 7;
  using Packed = std::array<std::uint64_t, 2 * kNumOps>;
  auto measure = [&](TransportKind kind) {
    std::vector<Packed> per_rank;
    std::mutex mu;
    run(kRanks, kind, [&](Comm& c) {
      c.barrier();
      auto a = c.allgather(static_cast<double>(c.rank()));
      auto s = c.allreduce(1.0, ReduceOp::kSum);
      if (c.rank() == 1) {
        const std::array<double, 8> h{};
        c.send(0, 5, std::span<const double>(h));
      } else if (c.rank() == 0) {
        auto h = c.recv<double>(1, 5);
        (void)h;
      }
      (void)a;
      (void)s;
      const RankTraffic mine = c.rank_traffic();
      Packed p{};
      for (std::size_t i = 0; i < kNumOps; ++i)
        if (auto it = mine.ops.find(kOps[i]); it != mine.ops.end()) {
          p[2 * i] = it->second.calls;
          p[2 * i + 1] = it->second.bytes;
        }
      auto all = c.gather(p, 0);
      if (c.rank() == 0) {
        std::lock_guard lk(mu);
        per_rank = std::move(all);
      }
    });
    return per_rank;
  };
  const auto inproc = measure(TransportKind::kInproc);
  const auto shm = measure(TransportKind::kShm);
  ASSERT_EQ(inproc.size(), static_cast<std::size_t>(kRanks));
  ASSERT_EQ(shm.size(), static_cast<std::size_t>(kRanks));
  for (int r = 0; r < kRanks; ++r) {
    const auto& a = inproc[static_cast<std::size_t>(r)];
    const auto& b = shm[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < kNumOps; ++i) {
      EXPECT_EQ(a[2 * i], b[2 * i]) << "rank " << r << " op " << kOps[i]
                                    << " calls";
      EXPECT_EQ(a[2 * i + 1], b[2 * i + 1])
          << "rank " << r << " op " << kOps[i] << " bytes";
    }
    // The body really communicated: barrier + allgather + allreduce.
    EXPECT_GE(a[0], 1u) << "rank " << r;
    EXPECT_GE(a[6], 1u) << "rank " << r; // allgatherv calls
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

// --- transport selection ---------------------------------------------------

TEST(TransportSelect, ParseAcceptsAliasesAndRejectsGarbage) {
  EXPECT_EQ(parse_transport("inproc"), TransportKind::kInproc);
  EXPECT_EQ(parse_transport("threads"), TransportKind::kInproc);
  EXPECT_EQ(parse_transport("shm"), TransportKind::kShm);
  EXPECT_EQ(parse_transport("procs"), TransportKind::kShm);
  EXPECT_THROW(parse_transport("mpi"), std::invalid_argument);
  EXPECT_STREQ(transport_name(TransportKind::kInproc), "inproc");
  EXPECT_STREQ(transport_name(TransportKind::kShm), "shm");
}

} // namespace
