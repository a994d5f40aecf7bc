// The two mlmd::serve workloads.
//
// serve_neural_closed  4 tenants, each one client thread keeping 2
//                      scenarios in flight (concurrency 8 = max_inflight).
//                      kNeural at lattice 32, so 8 x 1024 cells fill one
//                      8192-cell inference block; half the scenarios dark;
//                      200 XS steps. The first scenario of each of the 8
//                      slots is shortened (25, 50, ..., 200 steps) so the
//                      slots complete staggered instead of in waves of 8;
//                      those ramp scenarios are not counted. Over the
//                      stretches of kStretch consecutive completions it
//                      reports the fastest rate and the lowest-median
//                      stretch's latencies: the host's co-tenants slow the
//                      4-thread inference by up to 25% for seconds to
//                      minutes, and the best stretch is what stays put.
// serve_short_open     3 tenants, seeded Poisson arrivals at one fixed rate
//                      (--open-rate, default 6/s), 16x16 lattice, 20 XS
//                      steps; 3/4 of the scenarios pumped, 1/4 on the
//                      kExact backend. One generator thread submits on
//                      schedule and one waiter thread per tenant collects
//                      outcomes. Not a BENCHMARK.json workload (too noisy
//                      on a shared host, RATIONALE.md); run it by hand.
//
// Scenarios within a tenant all have the same stage-3 length, so they
// complete in submit order and one waiter per tenant sees no head-of-line
// error. Latency is client-side and exact (per-scenario samples): from
// submit in the closed loop, from the due time in the open loop.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "mlmd/nnq/train.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/serve/server.hpp"

namespace e2e {
namespace {

namespace serve = mlmd::serve;
using mlmd::pipeline::ForceBackend;

constexpr std::size_t kInflight = 8; ///< max_inflight == batch_max
/// Closed loop: consecutive completions in the measured stretch, about one
/// per slot (~2 s of the window).
constexpr std::size_t kStretch = kInflight;

struct Workload {
  bool closed = true;
  int tenants = 4;
  std::size_t lattice = 32;
  int xs_steps = 200;
};

Workload workload_of(const std::string& name) {
  if (name == "serve_neural_closed") return {true, 4, 32, 200};
  return {false, 3, 16, 20};
}

/// mlmd_serve's request shape.
PipelineOptions request_options(std::size_t lattice, int xs_steps, double e0,
                                ForceBackend backend) {
  PipelineOptions opt;
  opt.backend = backend;
  opt.lattice = lattice;
  opt.superlattice = 1;
  opt.relax_steps = 60;
  opt.grid_n = 8;
  opt.norb = 4;
  opt.nfilled = 2;
  opt.mesh_md_steps = 2;
  opt.mesh.nqd_per_md = 10;
  opt.mesh.lfd.dt_qd = 0.06;
  opt.xs_steps = xs_steps;
  opt.record_every = 10;
  opt.pulse.e0 = e0;
  opt.pulse.omega = 0.15;
  opt.pulse.fwhm = 30.0;
  opt.n_sat = 0.02;
  return opt;
}

/// One scenario's life as its client saw it.
struct Sample {
  Scenario sc;
  bool ramp = false;
  double t_start = 0.0;  ///< submit() call (closed) or due time (open)
  double submit_s = 0.0; ///< duration of the submit() call
  double late_s = 0.0;   ///< open loop: submit() call minus due time
  double t_done = 0.0;
  bool accepted = false;
  serve::Outcome out;
};

/// Trained model pair + a started Server: what a user pays before the
/// first scenario.
class Service {
 public:
  Service(const Options& o, const Workload& w, long& next_id) {
    pin_threads(o.threads);
    auto gs_data = mlmd::nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.0, 81);
    auto xs_data = mlmd::nnq::sample_ferro_dataset(8, 8, 0.05, 10, 5, 0.45, 82);
    gs_ = std::make_shared<mlmd::nnq::LatticeModel>(std::vector<std::size_t>{12, 12}, 5);
    xs_ = std::make_shared<mlmd::nnq::LatticeModel>(std::vector<std::size_t>{12, 12}, 6);
    mlmd::nnq::TrainOptions topt;
    topt.epochs = 10;
    const double t0 = now_s();
    mlmd::nnq::train_energy(gs_->net(), gs_data, topt);
    mlmd::nnq::train_energy(xs_->net(), xs_data, topt);
    train_s_ = now_s() - t0;
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("gs", gs_);
    registry->add("xs", xs_);

    serve::ServerOptions sopt;
    sopt.queue_capacity = 4096;
    sopt.max_inflight = kInflight;
    sopt.batch_max = kInflight;
    sopt.batch = true;
    server_ = std::make_unique<serve::Server>(sopt, std::move(registry));
    server_->start();

    // Warm-up: one full batch of short scenarios of the workload's mix.
    std::vector<long> ids;
    for (std::size_t i = 0; i < kInflight; ++i) {
      Scenario s;
      s.id = ++next_id;
      s.tenant = static_cast<int>(i) % w.tenants;
      s.dark = i % 2 == 1;
      const ForceBackend b =
          !w.closed && i % 4 == 3 ? ForceBackend::kExact : ForceBackend::kNeural;
      s.opt = request_options(w.lattice, 10, 0.12, b);
      if (server_->submit(request(s)).accepted) ids.push_back(s.id);
    }
    for (long id : ids) server_->wait(id);
  }
  ~Service() { server_->stop(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  serve::Server& server() { return *server_; }
  double train_s() const { return train_s_; }

  serve::Request request(const Scenario& s) const {
    serve::Request req;
    req.tenant = s.tenant;
    req.id = s.id;
    req.dark = s.dark;
    req.opt = s.opt;
    if (s.opt.backend == ForceBackend::kNeural) {
      req.gs_model = "gs";
      req.xs_model = "xs";
    }
    return req;
  }
  /// The scenario as run_pipeline or the replay needs it: models attached.
  Scenario with_models(Scenario s) const {
    if (s.opt.backend == ForceBackend::kNeural) {
      s.opt.gs_model = gs_;
      s.opt.xs_model = xs_;
    }
    return s;
  }

 private:
  std::shared_ptr<mlmd::nnq::LatticeModel> gs_, xs_;
  std::unique_ptr<serve::Server> server_;
  double train_s_ = 0.0;
};

/// Samples of one measured phase; [w0, w1] is the counted window.
struct Phase {
  std::vector<Sample> samples;
  double w0 = 0.0, w1 = 0.0;
  bool counted(const Sample& s) const {
    return !s.ramp && s.accepted && s.t_done >= w0 && s.t_done <= w1;
  }
};

void submit(Service& svc, Sample& s) {
  s.t_start = s.t_start > 0.0 ? s.t_start : now_s();
  const double t = now_s();
  s.accepted = svc.server().submit(svc.request(s.sc)).accepted;
  s.submit_s = now_s() - t;
  s.late_s = t - s.t_start;
}

Phase closed_loop(Service& svc, const Workload& w, const Options& o,
                  long& next_id) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::atomic<int> ramp_left{static_cast<int>(kInflight)};
  std::atomic<double> window0{kInf};
  std::atomic<long> ids{next_id};
  std::vector<std::vector<Sample>> per_client(static_cast<std::size_t>(w.tenants));

  const auto client = [&](int k) {
    auto& mine = per_client[static_cast<std::size_t>(k)];
    Rng rng(o.seed * 7919 + static_cast<std::uint64_t>(k));
    std::vector<int> darks;
    const auto make = [&](int xs_steps) {
      if (darks.empty()) { // half dark: one of each per block of two
        darks = {1, 0};
        rng.shuffle(darks);
      }
      Sample s;
      s.sc.id = ++ids;
      s.sc.tenant = k;
      s.sc.dark = darks.back() != 0;
      darks.pop_back();
      s.sc.opt = request_options(w.lattice, xs_steps, 0.10 + 0.04 * rng.uniform(),
                                 ForceBackend::kNeural);
      return s;
    };
    // Slots k and k + tenants; a slot's first scenario is its ramp.
    std::deque<std::pair<std::size_t, int>> inflight; // (sample, slot)
    for (int slot : {k, k + w.tenants}) {
      Sample s = make(w.xs_steps * (slot + 1) / static_cast<int>(kInflight));
      s.ramp = true;
      submit(svc, s);
      mine.push_back(std::move(s));
      if (mine.back().accepted) inflight.emplace_back(mine.size() - 1, slot);
    }
    while (!inflight.empty()) {
      const auto [i, slot] = inflight.front();
      inflight.pop_front();
      Sample& done = mine[i];
      done.out = svc.server().wait(done.sc.id);
      done.t_done = now_s();
      if (done.ramp && --ramp_left == 0) window0 = done.t_done;
      if (done.t_done < window0 + o.seconds) {
        Sample s = make(w.xs_steps);
        submit(svc, s);
        mine.push_back(std::move(s));
        if (mine.back().accepted) inflight.emplace_back(mine.size() - 1, slot);
      }
    }
  };
  std::vector<std::thread> clients;
  for (int k = 0; k < w.tenants; ++k) clients.emplace_back(client, k);
  for (auto& t : clients) t.join();
  next_id = ids;

  Phase ph;
  ph.w0 = window0;
  ph.w1 = ph.w0 + o.seconds;
  for (auto& v : per_client)
    for (auto& s : v) ph.samples.push_back(std::move(s));
  return ph;
}

Phase open_loop(Service& svc, const Workload& w, const Options& o,
                long& next_id) {
  // Inputs: N = rate x seconds Poisson arrivals over [0, seconds). The
  // N + 1 exponential gaps are stratified — the exponential quantiles at
  // (j + 1/2) / (N + 1) — and put in a seeded random order, so every seed
  // gets the same gap distribution and span and differs only in how the
  // gaps cluster; tenant / dark / backend are each balanced per block and
  // shuffled; pulse e0 is uniform.
  Rng rng(o.seed);
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(o.open_rate * o.seconds)));
  std::vector<double> gaps(n + 1);
  double sum = 0.0;
  for (std::size_t j = 0; j <= n; ++j)
    sum += (gaps[j] = -std::log1p(-(static_cast<double>(j) + 0.5) /
                                  static_cast<double>(n + 1)));
  rng.shuffle(gaps);
  std::vector<int> tenants, dark, exact;
  Phase ph;
  ph.samples.resize(n);
  double due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tenants.empty()) {
      for (int k = 0; k < w.tenants; ++k) tenants.insert(tenants.end(), 4, k);
      rng.shuffle(tenants);
    }
    if (dark.empty()) {
      dark = {1, 0, 0, 0};
      rng.shuffle(dark);
    }
    if (exact.empty()) {
      exact = {1, 0, 0, 0};
      rng.shuffle(exact);
    }
    Sample& s = ph.samples[i];
    due += gaps[i] / sum * o.seconds;
    s.t_start = due; // relative until the generator starts
    s.sc.id = ++next_id;
    s.sc.tenant = tenants.back();
    s.sc.dark = dark.back() != 0;
    s.sc.opt = request_options(w.lattice, w.xs_steps, 0.10 + 0.04 * rng.uniform(),
                               exact.back() ? ForceBackend::kExact
                                            : ForceBackend::kNeural);
    tenants.pop_back();
    dark.pop_back();
    exact.pop_back();
  }

  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> queue;
    bool closed = false;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(w.tenants));
  const double t0 = now_s() + 0.005;
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      Sample& s = ph.samples[i];
      s.t_start += t0;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.0, s.t_start - now_s())));
      submit(svc, s);
      if (!s.accepted) continue;
      Lane& lane = lanes[static_cast<std::size_t>(s.sc.tenant)];
      std::lock_guard lk(lane.mu);
      lane.queue.push_back(i);
      lane.cv.notify_one();
    }
    for (auto& lane : lanes) {
      std::lock_guard lk(lane.mu);
      lane.closed = true;
      lane.cv.notify_one();
    }
  });
  std::vector<std::thread> waiters;
  for (auto& lane : lanes)
    waiters.emplace_back([&] {
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock lk(lane.mu);
          lane.cv.wait(lk, [&] { return !lane.queue.empty() || lane.closed; });
          if (lane.queue.empty()) return;
          i = lane.queue.front();
          lane.queue.pop_front();
        }
        Sample& s = ph.samples[i];
        s.out = svc.server().wait(s.sc.id);
        s.t_done = now_s();
      }
    });
  generator.join();
  for (auto& t : waiters) t.join();
  ph.w0 = t0;
  ph.w1 = std::numeric_limits<double>::infinity();
  return ph;
}

Phase run_phase(Service& svc, const Workload& w, const Options& o,
                long& next_id) {
  return w.closed ? closed_loop(svc, w, o, next_id)
                  : open_loop(svc, w, o, next_id);
}

/// End-to-end figures of one phase.
struct Summary {
  double rate = 0.0, tts = 0.0, t2s = 0.0, p50 = 0.0, p90 = 0.0;
  std::size_t n = 0, samples = 0, beyond_p90 = 0; ///< counted; latency samples
  long attempted = 0, failed = 0;
  double late_p90 = 0.0, submit_us = 0.0;
};

Summary summarize(const Phase& ph, const Workload& w) {
  Summary s;
  std::vector<double> latency, late, submit_us;
  std::vector<std::pair<double, double>> busy; // [start, done] per scenario
  double cell_steps = 0.0;
  for (const auto& x : ph.samples) {
    if (x.ramp) continue;
    if (!x.accepted) {
      if (x.t_start >= ph.w0 && x.t_start <= ph.w1) ++s.attempted, ++s.failed;
      continue;
    }
    submit_us.push_back(1e6 * x.submit_s);
    late.push_back(x.late_s);
    if (!ph.counted(x)) continue;
    ++s.attempted;
    if (!x.out.ok) {
      ++s.failed;
      continue;
    }
    latency.push_back(x.t_done - x.t_start);
    busy.emplace_back(x.t_start, x.t_done);
    cell_steps += static_cast<double>(x.sc.opt.lattice * x.sc.opt.lattice) *
                  x.sc.opt.xs_steps;
  }
  s.n = latency.size();
  if (s.n < 2) return s;
  double wall = 0.0, completed = 0.0;
  if (w.closed) {
    // Over the stretches of kStretch consecutive completions in the steady
    // window: the rate of the fastest one, and as the latency samples the
    // scenarios of the one with the lowest median latency. Every counted
    // scenario has the same cells x steps.
    std::vector<std::pair<double, double>> fin; // (done, latency), by done
    for (const auto& [start, done] : busy) fin.emplace_back(done, done - start);
    std::sort(fin.begin(), fin.end());
    const std::size_t g = std::min(kStretch, fin.size());
    const auto span = [&](std::size_t i) { return fin[i + g - 1].first - fin[i].first; };
    const auto lat = [&](std::size_t i) {
      std::vector<double> v;
      for (std::size_t j = i; j < i + g; ++j) v.push_back(fin[j].second);
      return v;
    };
    std::size_t fast = 0, low = 0;
    for (std::size_t i = 1; i + g <= fin.size(); ++i) {
      if (span(i) < span(fast)) fast = i;
      if (median(lat(i)) < median(lat(low))) low = i;
    }
    wall = span(fast);
    completed = static_cast<double>(g - 1);
    cell_steps *= completed / static_cast<double>(s.n);
    s.rate = completed / wall;
    latency = lat(low);
  } else {
    // Achieved rate, and the time with at least one scenario outstanding.
    std::sort(busy.begin(), busy.end());
    double last = 0.0;
    for (const auto& b : busy) last = std::max(last, b.second);
    completed = static_cast<double>(s.n);
    s.rate = completed / (last - busy.front().first);
    double c0 = busy.front().first, c1 = busy.front().second;
    for (const auto& [a, b] : busy) {
      if (a > c1) {
        wall += c1 - c0;
        c0 = a;
      }
      c1 = std::max(c1, b);
    }
    wall += c1 - c0;
  }
  s.tts = 2.0 * wall / completed;
  s.t2s = 1e9 * wall / cell_steps;
  s.samples = latency.size();
  s.p50 = median(latency);
  s.p90 = quantile(latency, 0.9);
  s.beyond_p90 = count_above(latency, s.p90);
  s.late_p90 = quantile(late, 0.9);
  double sum = 0.0;
  for (double u : submit_us) sum += u;
  s.submit_us = submit_us.empty() ? 0.0 : sum / static_cast<double>(submit_us.size());
  return s;
}

/// Seeded choice of up to `want_neural` + `want_exact` counted, completed
/// scenarios of a phase.
std::vector<const Sample*> pick(const Phase& ph, std::uint64_t seed,
                                std::size_t want_neural, std::size_t want_exact) {
  std::vector<const Sample*> neural, exact;
  for (const auto& s : ph.samples)
    if (ph.counted(s) && s.out.ok)
      (s.sc.opt.backend == ForceBackend::kExact ? exact : neural).push_back(&s);
  Rng rng(seed);
  rng.shuffle(neural);
  rng.shuffle(exact);
  neural.resize(std::min(neural.size(), want_neural));
  exact.resize(std::min(exact.size(), want_exact));
  neural.insert(neural.end(), exact.begin(), exact.end());
  return neural;
}

/// Re-run a seeded sample of completed scenarios alone through
/// pipeline::run_pipeline and memcmp against what the server returned
/// (the batched == unbatched == solo contract), outside the timed window.
void check_solo(const Service& svc, const Phase& ph, const Options& o,
                const Workload& w, Report& r) {
  const auto chosen = pick(ph, o.seed + 17, w.closed ? 4 : 3, w.closed ? 0 : 1);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const Scenario sc = svc.with_models(chosen[i]->sc);
    PipelineResult served = chosen[i]->out.result;
    if (o.corrupt && i == 0) corrupt(served);
    const PipelineResult solo = mlmd::pipeline::run_pipeline(sc.opt, sc.dark);
    if (!same_physics(solo, served)) ++mismatches;
  }
  r.check(!chosen.empty() && mismatches == 0,
          std::to_string(chosen.size()) +
              " served scenarios re-run alone through run_pipeline are "
              "bitwise equal");
}

} // namespace

void run_serve(const Options& o, Report& r) {
  const Workload w = workload_of(o.workload);
  long next_id = 0;
  // A traced run reports unbounded per-layer figures from two phases (one
  // untraced for the overhead, one traced); each is capped at 10 s.
  Options po = o;
  if (o.trace) po.seconds = std::min(o.seconds, 10.0);

  // Set up kSetups times (models, server, warm-up); report the median and
  // keep the last service for the measurement.
  std::vector<double> setups;
  std::unique_ptr<Service> svc;
  double train_s = 0.0;
  for (int k = 0; k < (o.trace ? 1 : kSetups); ++k) {
    const double t0 = k == 0 ? o.t_start : now_s();
    svc.reset();
    svc = std::make_unique<Service>(o, w, next_id);
    setups.push_back(now_s() - t0);
    train_s = svc->train_s();
  }

  const Phase ph = run_phase(*svc, w, po, next_id);
  const Summary s = summarize(ph, w);
  std::printf("info %s: counted=%zu attempted=%ld failed=%ld latency "
              "samples=%zu p90=%.6f s beyond_p90=%zu generator_late_p90=%.6f s\n",
              w.closed ? "closed loop" : "open loop", s.n, s.attempted,
              s.failed, s.samples, s.p90, s.beyond_p90, s.late_p90);
  std::printf("info failed_share=%.6f\n",
              s.attempted ? static_cast<double>(s.failed) /
                                static_cast<double>(s.attempted)
                          : 0.0);
  r.check(s.n >= 2 && s.failed == 0,
          "no scenario rejected, failed or reaped in the window");

  if (!o.trace) {
    check_solo(*svc, ph, o, w, r);
    r.attempted = std::max(1L, s.attempted);
    r.failed = s.failed;
    r.set("setup_s", median(setups));
    r.set("tts_s", s.tts);
    r.set("t2s_ns_per_cell_step", s.t2s);
    r.set("scenarios_per_s", s.rate);
    r.set("latency_p50_s", s.p50);
    std::printf("info peak_rss_mb=%.3f\n", peak_rss_mb());
    return;
  }

  // Traced phase: same inputs, obs::Tracer on, registry reset.
  namespace obs = mlmd::obs;
  obs::Registry::global().reset();
  obs::Tracer::clear();
  obs::Tracer::enable(true);
  const double clock_offset = now_s() - 1e-9 * static_cast<double>(obs::Tracer::now_ns());
  const Phase tph = run_phase(*svc, w, po, next_id);
  obs::Tracer::enable(false);
  const auto ev = obs::Tracer::snapshot();
  const Summary ts = summarize(tph, w);
  auto& reg = obs::Registry::global();
  const double queue_wait = reg.histogram("serve.queue.wait_seconds").mean();
  const double occupancy = reg.histogram("serve.batch.occupancy").mean();
  svc->server().stop();

  // pool.launch spans inside the counted window, per counted scenario.
  double launch_s = 0.0, launches = 0.0;
  for (const auto& e : ev) {
    const double t = clock_offset + 1e-9 * static_cast<double>(e.t0_ns);
    if (std::string_view(e.name) == "pool.launch" && t >= tph.w0 && t <= tph.w1) {
      launch_s += 1e-9 * static_cast<double>(e.dur_ns);
      launches += 1.0;
    }
  }
  if (obs::Tracer::dropped() > 0)
    std::printf("warning: tracer dropped %llu program spans\n",
                static_cast<unsigned long long>(obs::Tracer::dropped()));

  std::vector<Scenario> replayed;
  std::vector<PipelineResult> expected;
  for (const Sample* x : pick(tph, o.seed + 29, w.closed ? 8 : 6, w.closed ? 0 : 2)) {
    replayed.push_back(svc->with_models(x->sc));
    expected.push_back(x->out.result);
  }
  replay_and_report(replayed, expected, kInflight, o.threads, r);

  const double per_scenario = ts.n ? 1.0 / static_cast<double>(ts.n) : 0.0;
  r.set("par.pool_launch_s", launch_s * per_scenario);
  r.set("par.pool_launches", launches * per_scenario);
  r.set("nnq.train_s", train_s);
  r.set("serve.submit_us", ts.submit_us);
  r.set("serve.queue_wait_s", queue_wait);
  r.set("serve.batch_occupancy", occupancy / static_cast<double>(kInflight));
  r.set("obs.trace_overhead", ts.tts / s.tts - 1.0);
  r.set("bench.gen_late_s_p90", w.closed ? 0.0 : s.late_p90);
  r.set("failed_share", ts.attempted ? static_cast<double>(ts.failed) /
                                          static_cast<double>(ts.attempted)
                                    : 0.0);
  r.set("peak_rss_mb", peak_rss_mb());
  r.attempted = std::max(1L, ts.attempted);
  r.failed = ts.failed;

  if (w.closed) {
    const double forces = r.get("nnq.forces_s");
    const double rest = r.get("mlmd.stage3_s") - forces;
    std::printf("stress nnq.forces_s = %.6f vs rest of stage 3 = %.6f: %s\n",
                forces, rest, forces > rest ? "largest child" : "NOT largest");
  } else {
    const double mesh = r.get("mesh.setup_s") + r.get("mesh.md_step_s");
    const double other = std::max({r.get("ferro.relax_s"), r.get("topo.init_s"),
                                   r.get("topo.charge_s")});
    std::printf("stress mesh.setup_s + mesh.md_step_s = %.6f (%.3f of "
                "mlmd.prepare_s) vs next largest part %.6f: %s\n",
                mesh, mesh / r.get("mlmd.prepare_s"), other,
                mesh > other ? "largest part" : "NOT largest");
  }
}

} // namespace e2e
