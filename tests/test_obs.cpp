// mlmd::obs subsystem tests: span tracer semantics (nesting, merge
// determinism, disabled-mode zero allocation, overflow policy), the
// metrics registry, and SimComm's exact per-rank communication accounting
// (DESIGN.md Sec. 9). Tracer state is process-global, so every tracer
// test starts from enable(true) + clear() and ends disabled.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "mlmd/mlmd/pipeline.hpp"
#include "mlmd/obs/obs.hpp"
#include "mlmd/par/simcomm.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/qxmd/pair_potential.hpp"

// Process-wide allocation counter backing
// Obs.AccountSteadyStateIsAllocationFree: replacing the global operator
// new/delete pair is the only way to observe every heap allocation on the
// comm-accounting hot path. Replacements must live at global scope.
static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

// GCC's heuristic cannot see that these replacements pair malloc with
// free consistently and flags every inlined delete site.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using mlmd::obs::Cat;
using mlmd::obs::ObsScope;
using mlmd::obs::SpanEvent;
using mlmd::obs::Tracer;

std::vector<SpanEvent> spans_named(const std::string& prefix) {
  std::vector<SpanEvent> out;
  for (const auto& e : Tracer::snapshot())
    if (std::string(e.name).rfind(prefix, 0) == 0) out.push_back(e);
  return out;
}

TEST(Tracer, DisabledScopeRecordsNothingAndAllocatesNoBuffers) {
  Tracer::enable(false);
  Tracer::clear();
  const auto bufs0 = Tracer::thread_buffer_count();
  const auto spans0 = Tracer::span_count();
  // A fresh thread is the strictest case: with tracing off it must not
  // even register a ring buffer.
  std::thread t([] {
    for (int i = 0; i < 1000; ++i) ObsScope s("off.kernel", Cat::kKernel);
  });
  t.join();
  ObsScope s("off.local", Cat::kPhase);
  EXPECT_EQ(Tracer::span_count(), spans0);
  EXPECT_EQ(Tracer::thread_buffer_count(), bufs0);
}

TEST(Tracer, NestedSpansCarryDepthAndEnclosingInterval) {
  Tracer::enable(true);
  Tracer::clear();
  {
    ObsScope outer("nest.outer", Cat::kStep);
    {
      ObsScope mid("nest.mid", Cat::kPhase);
      ObsScope leaf("nest.leaf", Cat::kKernel);
    }
  }
  Tracer::enable(false);

  const auto outer = spans_named("nest.outer");
  const auto mid = spans_named("nest.mid");
  const auto leaf = spans_named("nest.leaf");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(mid.size(), 1u);
  ASSERT_EQ(leaf.size(), 1u);

  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(mid[0].depth, 1u);
  EXPECT_EQ(leaf[0].depth, 2u);
  EXPECT_EQ(outer[0].cat, Cat::kStep);
  EXPECT_EQ(leaf[0].cat, Cat::kKernel);

  // Children start no earlier and end no later than their parent.
  EXPECT_GE(mid[0].t0_ns, outer[0].t0_ns);
  EXPECT_LE(mid[0].t0_ns + mid[0].dur_ns, outer[0].t0_ns + outer[0].dur_ns);
  EXPECT_GE(leaf[0].t0_ns, mid[0].t0_ns);
  EXPECT_LE(leaf[0].t0_ns + leaf[0].dur_ns, mid[0].t0_ns + mid[0].dur_ns);

  // snapshot() orders parents before the children they enclose.
  const auto all = Tracer::snapshot();
  std::size_t io = all.size(), il = all.size();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (std::string(all[i].name) == "nest.outer") io = i;
    if (std::string(all[i].name) == "nest.leaf") il = i;
  }
  EXPECT_LT(io, il);
}

TEST(Tracer, MultiThreadMergeIsDeterministic) {
  Tracer::enable(true);
  Tracer::clear();
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  static const char* kNames[kThreads] = {"merge.a", "merge.b", "merge.c",
                                         "merge.d"};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kSpans; ++i)
        ObsScope s(kNames[t], Cat::kKernel);
    });
  for (auto& t : threads) t.join();
  Tracer::enable(false);

  const auto snap1 = Tracer::snapshot();
  const auto snap2 = Tracer::snapshot();
  ASSERT_EQ(snap1.size(), snap2.size());
  for (std::size_t i = 0; i < snap1.size(); ++i) {
    EXPECT_EQ(snap1[i].name, snap2[i].name);
    EXPECT_EQ(snap1[i].t0_ns, snap2[i].t0_ns);
    EXPECT_EQ(snap1[i].tid, snap2[i].tid);
  }
  // Every recording thread's spans are present and grouped by tid in
  // ascending start order.
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(spans_named(kNames[t]).size(), static_cast<std::size_t>(kSpans));
  for (std::size_t i = 1; i < snap1.size(); ++i) {
    if (snap1[i].tid == snap1[i - 1].tid)
      EXPECT_GE(snap1[i].t0_ns, snap1[i - 1].t0_ns);
    else
      EXPECT_GT(snap1[i].tid, snap1[i - 1].tid);
  }
}

TEST(Tracer, OverflowDropsNewestAndCounts) {
  Tracer::enable(true);
  Tracer::clear();
  const auto dropped0 = Tracer::dropped();
  // The per-thread ring holds 64Ki spans; push past it from one thread.
  for (int i = 0; i < (1 << 16) + 500; ++i)
    Tracer::record("ovf.span", Cat::kKernel, 0, 1, 0);
  Tracer::enable(false);
  EXPECT_GT(Tracer::dropped(), dropped0);
  EXPECT_GE(spans_named("ovf.span").size(), static_cast<std::size_t>(1) << 15);
  Tracer::clear();
}

TEST(Tracer, SummedSecondsAndChromeExport) {
  Tracer::enable(true);
  Tracer::clear();
  // Synthetic spans with exact durations: 3 x 1 ms under one prefix.
  Tracer::record("sum.x.a", Cat::kKernel, 1000, 1000000, 0);
  Tracer::record("sum.x.b", Cat::kKernel, 2000, 1000000, 0);
  Tracer::record("sum.x.c", Cat::kKernel, 3000, 1000000, 1);
  Tracer::record("sum.y", Cat::kKernel, 4000, 5000000, 0);
  Tracer::enable(false);
  EXPECT_NEAR(Tracer::summed_seconds("sum.x"), 3e-3, 1e-12);
  EXPECT_NEAR(Tracer::summed_seconds("sum."), 8e-3, 1e-12);

  const std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(Tracer::write_chrome_trace(path));
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, fp)) > 0) content.append(buf, got);
  std::fclose(fp);
  std::remove(path.c_str());
  ASSERT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("sum.x.a"), std::string::npos);
  Tracer::clear();
}

TEST(Metrics, CounterGaugeHistogramBasics) {
  auto& reg = mlmd::obs::Registry::global();
  auto& c = reg.counter("test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&c, &reg.counter("test.counter"));

  auto& g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  auto& h = reg.histogram("test.hist");
  h.reset();
  h.observe(1.0);
  h.observe(3.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);

  EXPECT_THROW(reg.gauge("test.counter"), std::logic_error);
}

TEST(Metrics, SnapshotsListInstrumentsByPrefix) {
  auto& reg = mlmd::obs::Registry::global();
  auto& c = reg.counter("test.snap.count");
  c.reset();
  c.add(3);
  bool found = false;
  for (const auto& s : reg.counters_snapshot())
    if (s.name == "test.snap.count" && s.value == 3u) found = true;
  EXPECT_TRUE(found);

  for (const char* name : {"test.snap.b", "test.snap.a", "test.snapx"}) {
    reg.histogram(name).reset();
    reg.histogram(name).observe(0.5);
  }
  const auto hs = reg.histograms_snapshot("test.snap.");
  ASSERT_EQ(hs.size(), 2u);
  EXPECT_EQ(hs[0].name, "test.snap.a");
  EXPECT_EQ(hs[1].name, "test.snap.b");
  EXPECT_EQ(hs[0].count, 1u);
  EXPECT_EQ(std::accumulate(hs[0].buckets.begin(), hs[0].buckets.end(),
                            std::uint64_t{0}),
            1u);
}

TEST(Metrics, ConcurrentCounterUpdatesAreLossless) {
  auto& c = mlmd::obs::Registry::global().counter("test.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, ObsScopeHistogramObservesElapsed) {
  // The histogram sees the region whether tracing is off or on; with
  // tracing on, the same scope also records its span.
  auto& h = mlmd::obs::Registry::global().histogram("test.scope.seconds");
  for (const bool traced : {false, true}) {
    h.reset();
    Tracer::enable(traced);
    Tracer::clear();
    {
      ObsScope span("test.scope", Cat::kKernel, &h);
    }
    Tracer::enable(false);
    EXPECT_EQ(h.count(), 1u) << "traced=" << traced;
    EXPECT_GE(h.sum(), 0.0);
    EXPECT_LT(h.sum(), 1.0); // an empty region is far below a second
    EXPECT_EQ(spans_named("test.scope").size(), traced ? 1u : 0u);
  }
  Tracer::clear();
}

TEST(SimComm, FourRankExactPerCollectiveAccounting) {
  using namespace mlmd::par;
  constexpr int kRanks = 4;
  std::vector<RankTraffic> traffic(kRanks);
  run(kRanks, [&](Comm& comm) {
    const int r = comm.rank();
    comm.barrier();

    std::vector<double> bc(16, 1.0); // 128 payload bytes from the root
    comm.broadcast(bc, /*root=*/0);

    std::vector<double> block(static_cast<std::size_t>(r) + 1, double(r));
    comm.allgatherv(std::span<const double>(block));

    std::vector<double> v(4, double(r));
    comm.allreduce(std::span<const double>(v), ReduceOp::kSum);

    std::vector<std::uint8_t> msg(10, std::uint8_t(r));
    comm.send((r + 1) % kRanks, /*tag=*/7, std::span<const std::uint8_t>(msg));
    comm.recv<std::uint8_t>((r + kRanks - 1) % kRanks, /*tag=*/7);

    traffic[static_cast<std::size_t>(r)] = comm.rank_traffic();
  });

  for (int r = 0; r < kRanks; ++r) {
    const auto& ops = traffic[static_cast<std::size_t>(r)].ops;
    ASSERT_EQ(ops.count("barrier"), 1u) << "rank " << r;
    EXPECT_EQ(ops.at("barrier").calls, 1u);
    EXPECT_EQ(ops.at("barrier").bytes, 0u);

    EXPECT_EQ(ops.at("broadcast").calls, 1u);
    EXPECT_EQ(ops.at("broadcast").bytes, r == 0 ? 128u : 0u);

    EXPECT_EQ(ops.at("allgatherv").calls, 1u);
    EXPECT_EQ(ops.at("allgatherv").bytes,
              static_cast<std::uint64_t>(r + 1) * sizeof(double));

    EXPECT_EQ(ops.at("allreduce").calls, 1u);
    EXPECT_EQ(ops.at("allreduce").bytes, 4 * sizeof(double));

    EXPECT_EQ(ops.at("send").calls, 1u);
    EXPECT_EQ(ops.at("send").bytes, 10u);
    EXPECT_EQ(ops.at("recv").calls, 1u);
    EXPECT_EQ(ops.at("recv").bytes, 10u);

    EXPECT_GE(traffic[static_cast<std::size_t>(r)].wait_seconds, 0.0);
  }
}

TEST(SimComm, RankTrafficResetAndBounds) {
  using namespace mlmd::par;
  run(2, [](Comm& comm) {
    comm.barrier();
    EXPECT_EQ(comm.rank_traffic().ops.at("barrier").calls, 1u);
    comm.barrier(); // sync so no rank resets while the peer still asserts
    comm.reset_stats();
    comm.barrier(); // resynchronize; every rank records exactly this one
    EXPECT_EQ(comm.rank_traffic().ops.at("barrier").calls, 1u);
  });
  auto state = std::make_shared<mlmd::par::detail::GroupState>(2);
  Comm comm(state, 0);
  EXPECT_THROW(state->rank_traffic(5), std::out_of_range);
}

TEST(SimComm, CommSpansRecordedWhenTracing) {
  using namespace mlmd::par;
  Tracer::enable(true);
  Tracer::clear();
  run(2, [](Comm& comm) {
    comm.barrier();
    comm.allreduce(1.0, ReduceOp::kSum);
  });
  Tracer::enable(false);
  EXPECT_EQ(spans_named("comm.barrier").size(), 2u);
  EXPECT_EQ(spans_named("comm.allreduce").size(), 2u);
  for (const auto& e : spans_named("comm."))
    EXPECT_EQ(e.cat, Cat::kComm);
  Tracer::clear();
}

TEST(Obs, CommTotalsTracksSimCommBytes) {
  using namespace mlmd::par;
  const auto t0 = mlmd::obs::comm_totals();
  run(2, [](Comm& comm) {
    std::vector<double> v(8, 1.0);
    comm.allreduce(std::span<const double>(v), ReduceOp::kSum);
  });
  const auto t1 = mlmd::obs::comm_totals();
  // Two ranks each contributed 64 payload bytes to the allreduce.
  EXPECT_EQ(t1.bytes - t0.bytes, 128u);
  EXPECT_GE(t1.wait_seconds, t0.wait_seconds);
}

TEST(Obs, AccountSteadyStateIsAllocationFree) {
  // The per-op counter handles are cached after first use, the per-rank
  // traffic map keys are short enough for SSO, and the wait histogram
  // handle is static — so after a short warm-up, comm accounting must not
  // touch the heap at all (barrier is the pure-accounting op: no payload).
  using namespace mlmd::par;
  Tracer::enable(false);
  run(1, [](Comm& comm) {
    for (int i = 0; i < 8; ++i) comm.barrier(); // warm all cached handles
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 256; ++i) comm.barrier();
    const std::uint64_t after = g_heap_allocs.load();
    EXPECT_EQ(after - before, 0u);
  });
}

TEST(Obs, SendRecvIntoSteadyStateIsAllocationFree) {
  // The full blocking p2p round trip on the reusable-buffer path: send()
  // recycles retired message buffers from the transport pool, recv_into()
  // lands in a per-thread byte scratch and a caller-owned typed buffer,
  // and the mailbox map node for a (src,dst,tag) key persists once
  // created — so after warm-up a halo-style exchange loop must not touch
  // the heap at all, on either rank.
  using namespace mlmd::par;
  Tracer::enable(false);
  std::array<std::uint64_t, 2> rank_allocs{1, 1};
  run(2, [&](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> halo(64, static_cast<double>(comm.rank()));
    std::vector<double> got;
    for (int i = 0; i < 8; ++i) { // warm pool, scratch, mailbox, counters
      comm.send(peer, /*tag=*/0, std::span<const double>(halo));
      comm.recv_into(peer, /*tag=*/0, got);
    }
    // The free-running loop below is not lockstep: a rank can run one
    // iteration ahead of its peer, so a mailbox queue briefly holds two
    // messages and up to five pool buffers are outside the pool at once
    // (at most three queued across both directions — both queues at
    // depth two simultaneously is impossible — plus one per rank in
    // transit inside recv_into between queue-pop and pool-push). A
    // lucky lockstep warm-up circulates only two buffers and leaves
    // queue capacity 1, so the first drifted iteration allocates in
    // send(). Warm the worst case deterministically: three sends in
    // flight per rank, with a barrier before the matching receives so
    // the peer cannot drain the queue while it fills — each queue
    // verifiably reaches depth 3 (capacity >= 3) and six buffers enter
    // circulation. Two closing barriers, not one: a barrier accounts
    // its op AFTER the rendezvous releases, so the peer's first
    // "barrier" map-node insert could land inside this rank's
    // measurement window — barrier #1 creates both nodes, barrier #2's
    // post-release accounting is then allocation-free.
    comm.send(peer, /*tag=*/0, std::span<const double>(halo));
    comm.send(peer, /*tag=*/0, std::span<const double>(halo));
    comm.send(peer, /*tag=*/0, std::span<const double>(halo));
    comm.barrier(); // both queues hold 3 before any drain begins
    comm.recv_into(peer, /*tag=*/0, got);
    comm.recv_into(peer, /*tag=*/0, got);
    comm.recv_into(peer, /*tag=*/0, got);
    comm.barrier();
    comm.barrier();
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 256; ++i) {
      comm.send(peer, /*tag=*/0, std::span<const double>(halo));
      comm.recv_into(peer, /*tag=*/0, got);
    }
    rank_allocs[static_cast<std::size_t>(comm.rank())] =
        g_heap_allocs.load() - before;
  });
  EXPECT_EQ(rank_allocs[0], 0u);
  EXPECT_EQ(rank_allocs[1], 0u);
}

TEST(Obs, ExactSessionSteadyStateStepIsAllocationFree) {
  // A warm kExact stage-3 step with the guard off — the lattice step, the
  // recorded topological charge and the history push — must not touch
  // the heap when it runs inline: the new field goes to the lattice's
  // second buffer, the charge reads cells through the accessor into
  // Workspace scratch, the pool takes the chunk body by reference, and
  // prepare() reserved q_history. An interleaved copy of the planar field
  // in the step loop would show up here. At 4 threads the 128^2 lattice
  // splits each launch into 8 chunks (one ferro launch per step plus two
  // charge passes per record), so a pool launch must not allocate either.
  using mlmd::par::ThreadPool;
  Tracer::enable(false);
  struct Case {
    int threads;
    std::size_t lattice;
  };
  for (const Case c : {Case{1, 32}, Case{1, 128}, Case{4, 32}, Case{4, 128}}) {
    ThreadPool::set_global_threads(c.threads);
    mlmd::pipeline::PipelineOptions opt;
    opt.lattice = c.lattice;
    opt.superlattice = 2;
    opt.relax_steps = 10;
    opt.xs_steps = 400;
    opt.record_every = 20;
    opt.guard.enabled = false;
    mlmd::pipeline::Session session(opt, /*dark=*/true);
    session.prepare();
    for (int i = 0; i < 20; ++i) session.step(); // includes one record
    const std::uint64_t before = g_heap_allocs.load();
    for (int i = 0; i < 200; ++i) session.step(); // ten records
    EXPECT_EQ(g_heap_allocs.load() - before, 0u)
        << "threads=" << c.threads << " lattice=" << c.lattice;
    EXPECT_EQ(session.result().q_history.size(), 12u);
  }
  ThreadPool::set_global_threads(0);
}

TEST(Obs, WarmLjEnergyForcesIsAllocationFree) {
  // The energy is a parallel_reduce whose partials come from the calling
  // thread's Workspace, and the force vector keeps its size, so a warm
  // call allocates nothing, inline or as a 27-chunk pool launch.
  using mlmd::par::ThreadPool;
  Tracer::enable(false);
  const auto atoms = mlmd::qxmd::make_cubic_lattice(6, 6, 6, 4.0, 50.0);
  const mlmd::qxmd::LjParams p;
  const mlmd::qxmd::NeighborList nl(atoms, p.rc);
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    std::vector<double> forces;
    const double warm = mlmd::qxmd::lj_energy_forces(atoms, nl, p, forces);
    const std::uint64_t before = g_heap_allocs.load();
    double e = 0.0;
    for (int i = 0; i < 20; ++i) e = mlmd::qxmd::lj_energy_forces(atoms, nl, p, forces);
    EXPECT_EQ(g_heap_allocs.load() - before, 0u) << "threads=" << threads;
    EXPECT_EQ(e, warm);
  }
  ThreadPool::set_global_threads(0);
}

TEST(Obs, HistogramMergeFoldsCountsSumsAndExtremes) {
  auto& h = mlmd::obs::Registry::global().histogram("test.hist.merge");
  h.reset();
  h.observe(2.0);
  h.merge(/*count=*/3, /*sum=*/6.0, /*min=*/1.0, /*max=*/4.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  // An empty remote histogram (count 0, min > max sentinel) is a no-op.
  h.merge(0, 0.0, std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  // A count-0 merge can still carry real extremes (idempotent child
  // snapshot that inherited the parent's min/max).
  h.merge(0, 0.0, 0.5, 0.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
}

TEST(Obs, InitTracingPrefersCliOverEnv) {
  // Not set anywhere: stays off.
  unsetenv("MLMD_TRACE");
  EXPECT_EQ(mlmd::obs::init_tracing(""), "");
  EXPECT_FALSE(Tracer::enabled());
  // CLI wins over the environment.
  setenv("MLMD_TRACE", "/tmp/env_trace.json", 1);
  EXPECT_EQ(mlmd::obs::init_tracing("/tmp/cli_trace.json"),
            "/tmp/cli_trace.json");
  EXPECT_TRUE(Tracer::enabled());
  Tracer::enable(false);
  EXPECT_EQ(mlmd::obs::init_tracing(""), "/tmp/env_trace.json");
  EXPECT_TRUE(Tracer::enabled());
  Tracer::enable(false);
  unsetenv("MLMD_TRACE");
  Tracer::clear();
}

} // namespace
