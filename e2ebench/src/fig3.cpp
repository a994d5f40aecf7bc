// fig3_exact: the paper's Fig. 3 experiment at the ROADMAP re-anchor
// shape — kExact backend, 128x128 lattice, 4x4 skyrmion superlattice
// (Q0 = -16), 6000 XS steps — as one pumped run plus its dark control,
// driven through pipeline::Session by a single caller.
//
// The inputs are fixed (they are the experiment); the seed only decides
// which run of each pair goes first. The run repeats the pair for the
// requested seconds and reports the lower envelope of the repeats: per
// scenario, the fastest prepare plus, block by block, the fastest
// kBlock-step stretch of stage 3. The work is deterministic and
// single-caller, so slower repeats of a block differ only by contention
// from other tenants of the host, which swings a fixed compute loop by
// +-25% over minutes with thread CPU time equal to wall time, while its
// fastest millisecond stays put.
//
// The q_history digests below were recorded from the repository's code at
// the time this benchmark was defined (identical at 1, 2 and 4 threads and
// under MLMD_SIMD=scalar); a change that alters a single bit of either
// trajectory fails the run.

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace e2e {
namespace {

constexpr std::size_t kLattice = 128;
constexpr int kXsSteps = 6000;
constexpr int kBlock = 20; ///< XS steps per timed stage-3 block
constexpr double kQ0 = -16.0;
constexpr std::uint64_t kPumpedDigest = 0x559fec20c2ad71c5ull;
constexpr std::uint64_t kDarkDigest = 0x733be401d8eb8e62ull;

Scenario fig3_scenario(bool dark) {
  Scenario s;
  s.id = dark ? 2 : 1;
  s.dark = dark;
  s.opt.lattice = kLattice;
  s.opt.superlattice = 4;
  s.opt.xs_steps = kXsSteps;
  s.opt.pulse.e0 = 0.08; // mlmd_run pipeline defaults
  s.opt.n_sat = 0.5;
  return s;
}

struct Timed {
  PipelineResult res;
  double prepare = 0.0;       ///< Session construction + prepare()
  std::vector<double> blocks; ///< stage 3, per kBlock XS steps
  double stage3() const {
    double s = 0.0;
    for (double b : blocks) s += b;
    return s;
  }
  double total() const { return prepare + stage3(); }
};

Timed run_session(const Scenario& s) {
  Timed t;
  double t0 = now_s();
  mlmd::pipeline::Session session(s.opt, s.dark);
  session.prepare();
  double t1 = now_s();
  t.prepare = t1 - t0;
  for (int k = 1; session.step(); ++k)
    if (k % kBlock == 0) {
      t0 = now_s();
      t.blocks.push_back(t0 - t1);
      t1 = t0;
    }
  t.blocks.push_back(now_s() - t1);
  t.res = session.result();
  return t;
}

/// Lower envelope of repeats of one scenario: the fastest prepare plus,
/// block by block, the fastest stage-3 block.
Timed envelope(const std::vector<const Timed*>& runs) {
  Timed e = *runs.front();
  for (const Timed* t : runs) {
    e.prepare = std::min(e.prepare, t->prepare);
    for (std::size_t b = 0; b < std::min(e.blocks.size(), t->blocks.size()); ++b)
      e.blocks[b] = std::min(e.blocks[b], t->blocks[b]);
  }
  return e;
}

/// Pool pinning plus a pumped warm-up run at the experiment's shape, cut to
/// 100 XS steps, so every module the pipeline uses (ferro, topo, mesh/lfd,
/// nnq weight) has run at the size the measured repeats use.
void setup(const Options& o) {
  pin_threads(o.threads);
  Scenario w = fig3_scenario(false);
  w.opt.xs_steps = 100;
  run_session(w);
}

} // namespace

void run_fig3_exact(const Options& o, Report& r) {
  // setup_s: process start to the end of the first set-up, then
  // kSetups - 1 more set-ups; the median is reported.
  std::vector<double> setups;
  for (int k = 0; k < (o.trace ? 1 : kSetups); ++k) {
    const double t0 = k == 0 ? o.t_start : now_s();
    setup(o);
    setups.push_back(now_s() - t0);
  }
  const Scenario pumped = fig3_scenario(false), dark = fig3_scenario(true);
  const double cell_steps = static_cast<double>(kLattice * kLattice) * kXsSteps;

  if (o.trace) {
    const Timed p = run_session(pumped), d = run_session(dark);
    const double untraced = p.total() + d.total();
    const double traced =
        replay_and_report({pumped, dark}, {p.res, d.res}, 1, o.threads, r);
    r.set("obs.trace_overhead", traced / untraced - 1.0);
    r.set("peak_rss_mb", peak_rss_mb());
    r.attempted = 2;
    // Shares of the traced pair's wall time, measured in the same replay.
    const double ferro = 2.0 * r.get("ferro.step_s") / traced;
    std::printf("stress ferro.step_s share of the traced tts_s = %.3f "
                "(target >= 0.85: %s); topo.charge_s share = %.3f\n",
                ferro, ferro >= 0.85 ? "yes" : "no",
                2.0 * r.get("topo.charge_s") / traced);
    return;
  }

  Rng rng(o.seed);
  std::vector<std::pair<Timed, Timed>> pairs; // (pumped, dark)
  bool switched = true, dark_held = true, digests = true, repeat = true;
  const double w0 = now_s();
  do {
    const bool dark_first = rng.uniform() < 0.5;
    Timed a = run_session(dark_first ? dark : pumped);
    Timed b = run_session(dark_first ? pumped : dark);
    pairs.emplace_back(std::move(dark_first ? b : a), std::move(dark_first ? a : b));
  } while (now_s() - w0 < o.seconds);
  if (o.corrupt) corrupt(pairs.front().first.res);

  std::uint64_t got_pumped = 0, got_dark = 0;
  double q_pumped = 0.0, q_dark = 0.0;
  for (const auto& [tp, td] : pairs) {
    // Q is an integer up to rounding of the lattice solid-angle sum.
    const auto near = [](double q, double want) { return std::abs(q - want) < 1e-3; };
    switched = switched && tp.res.switched && near(tp.res.q_initial, kQ0) &&
               std::abs(tp.res.q_final - tp.res.q_initial) > 0.5 * std::abs(kQ0);
    dark_held = dark_held && !td.res.switched && near(td.res.q_initial, kQ0) &&
                near(td.res.q_final, kQ0);
    q_pumped = tp.res.q_final;
    q_dark = td.res.q_final;
    const std::uint64_t hp = fnv1a(hexfloat_history(tp.res)),
                        hd = fnv1a(hexfloat_history(td.res));
    if (&tp != &pairs.front().first)
      repeat = repeat && hp == got_pumped && hd == got_dark;
    got_pumped = hp;
    got_dark = hd;
    digests = digests && hp == kPumpedDigest && hd == kDarkDigest;
  }

  char what[160];
  std::snprintf(what, sizeof what,
                "pumped run switches: Q -16 -> %.6f, |dQ| > |Q0|/2", q_pumped);
  r.check(switched, what);
  std::snprintf(what, sizeof what, "dark run keeps Q0 = -16: Q_final = %.6f",
                q_dark);
  r.check(dark_held, what);
  std::snprintf(what, sizeof what,
                "q_history digests pumped=%016llx dark=%016llx match the "
                "recorded ones",
                static_cast<unsigned long long>(got_pumped),
                static_cast<unsigned long long>(got_dark));
  r.check(digests, what);
  r.check(repeat, "every pair reproduces the same trajectories");

  // The lower envelope of the pumped and of the dark repeats; those two
  // are the latency samples.
  std::vector<const Timed*> runs_pumped, runs_dark;
  std::printf("info pair tts_s:");
  for (const auto& [tp, td] : pairs) {
    std::printf(" %.4f", tp.total() + td.total());
    runs_pumped.push_back(&tp);
    runs_dark.push_back(&td);
  }
  std::printf("\n");
  const Timed ep = envelope(runs_pumped), ed = envelope(runs_dark);
  const double tts = ep.total() + ed.total();
  const std::vector<double> latency = {ep.total(), ed.total()};
  const auto n = static_cast<long>(2 * pairs.size());
  r.attempted = n;
  r.failed = r.correct() ? 0 : n;
  std::printf("info pairs=%zu scenarios=%ld; the metrics are the lower "
              "envelope of the repeats (%d-step blocks): pumped %.4f s, "
              "dark %.4f s\n",
              pairs.size(), n, kBlock, ep.total(), ed.total());
  r.set("setup_s", median(setups));
  r.set("tts_s", tts);
  r.set("t2s_ns_per_cell_step",
        1e9 * (ep.stage3() + ed.stage3()) / (2.0 * cell_steps));
  r.set("scenarios_per_s", 2.0 / tts);
  r.set("latency_p50_s", median(latency));
  std::printf("info peak_rss_mb=%.3f\n", peak_rss_mb());
}

} // namespace e2e
