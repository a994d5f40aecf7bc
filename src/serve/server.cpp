#include "mlmd/serve/server.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mlmd/ft/fault.hpp"
#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::serve {
namespace {

std::string ckpt_path(const std::string& dir, long id) {
  return dir + "/session-" + std::to_string(id) + ".ckpt";
}

} // namespace

void ModelRegistry::add(std::string name,
                        std::shared_ptr<const nnq::LatticeModel> m) {
  std::lock_guard lk(mu_);
  models_[std::move(name)] = std::move(m);
}

std::shared_ptr<const nnq::LatticeModel> ModelRegistry::get(
    const std::string& name) const {
  std::lock_guard lk(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

Server::Server(ServerOptions opt, std::shared_ptr<ModelRegistry> models)
    : opt_(opt),
      models_(std::move(models)),
      queue_(opt.queue_capacity, opt.tenant_quota),
      batcher_(opt.batch_max, opt.verify_batching) {
  if (!models_) models_ = std::make_shared<ModelRegistry>();
  if (!opt_.checkpoint_dir.empty())
    std::filesystem::create_directories(opt_.checkpoint_dir);
}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard lk(mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { scheduler_loop(); });
}

void Server::stop() {
  {
    std::lock_guard lk(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  queue_.stop();
  cv_work_.notify_all();
  thread_.join();
  std::lock_guard lk(mu_);
  running_ = false;
}

Ticket Server::submit(Request req) {
  if (req.deadline_ms <= 0.0 && opt_.default_deadline_ms > 0.0)
    req.deadline_ms = opt_.default_deadline_ms;
  // Load shedding: under sustained overload the queue wait itself is the
  // signal — once the p95 crosses the watermark (and there IS a backlog;
  // an idle server's stale p95 must not shed), reject instead of queueing
  // work that will blow its deadline anyway.
  if (opt_.shed_watermark_ms > 0.0 && queue_.size() > 0) {
    auto& reg = obs::Registry::global();
    const double p95_ms =
        reg.histogram("serve.queue.wait_seconds").quantile(0.95) * 1e3;
    if (p95_ms > opt_.shed_watermark_ms) {
      count_reject(Reject::kOverload, req.tenant);
      reg.counter("serve.shed").add(1);
      return Ticket{false, Reject::kOverload, req.id};
    }
  }
  const long id = req.id;
  {
    // Stamp before push: the scheduler may pop (and need the submit time)
    // the instant the request is queued.
    std::lock_guard lk(mu_);
    // A resubmit of a reaped/drained id resumes from its kept checkpoint;
    // drop the stale outcome so wait(id) blocks for the new run.
    outcomes_.erase(id);
    submitted_[id] = obs::mono_ns();
    ++pending_;
  }
  Ticket t = queue_.push(std::move(req));
  if (!t.accepted) {
    std::lock_guard lk(mu_);
    submitted_.erase(id);
    --pending_;
    cv_done_.notify_all();
  } else {
    cv_work_.notify_one();
  }
  return t;
}

Outcome Server::wait(long id) {
  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [&] {
    return outcomes_.count(id) != 0 || submitted_.count(id) == 0;
  });
  auto it = outcomes_.find(id);
  if (it != outcomes_.end()) return it->second;
  Outcome o;
  o.error = "unknown id " + std::to_string(id);
  return o;
}

void Server::wait_all() {
  std::unique_lock lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
}

void Server::drain() {
  const std::uint64_t t0 = obs::mono_ns();
  {
    std::lock_guard lk(mu_);
    draining_ = true;
  }
  queue_.stop();
  cv_work_.notify_all();
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
  }
  obs::Registry::global()
      .histogram("serve.drain.seconds")
      .observe(static_cast<double>(obs::mono_ns() - t0) * 1e-9);
}

void Server::complete(Active& a, Outcome out) {
  // The scenario is terminal: its warm-restart checkpoint is obsolete —
  // EXCEPT when it was reaped at a deadline or drained at shutdown. Those
  // keep the checkpoint, so a resubmit of the same id resumes where the
  // scenario was cut off instead of restarting from scratch.
  const bool keep_ckpt =
      out.reject == Reject::kDeadline || out.reject == Reject::kStopped;
  if (!opt_.checkpoint_dir.empty() && !keep_ckpt)
    std::remove(ckpt_path(opt_.checkpoint_dir, a.id).c_str());
  queue_.on_done(a.tenant);

  auto& reg = obs::Registry::global();
  if (a.t_submit_ns) {
    static auto& latency = reg.histogram("serve.latency_seconds");
    const double lat = static_cast<double>(obs::mono_ns() - a.t_submit_ns) * 1e-9;
    latency.observe(lat);
    latency_lane(a.tenant).observe(lat);
  }
  if (out.reject == Reject::kDeadline) {
    reg.counter("serve.deadline.hits").add(1);
    reg.counter("serve.deadline.hits.t" + std::to_string(a.tenant)).add(1);
    count_reject(Reject::kDeadline, a.tenant);
  } else if (out.reject == Reject::kStopped) {
    reg.counter("serve.drained").add(1);
  } else {
    reg.counter(out.ok ? "serve.completed" : "serve.failed").add(1);
  }

  std::lock_guard lk(mu_);
  outcomes_[a.id] = std::move(out);
  --pending_;
  cv_done_.notify_all();
}

obs::Histogram& Server::latency_lane(int tenant) {
  auto it = latency_lanes_.find(tenant);
  if (it == latency_lanes_.end())
    it = latency_lanes_
             .emplace(tenant, &obs::Registry::global().histogram(
                                  "serve.latency_seconds.t" +
                                  std::to_string(tenant)))
             .first;
  return *it->second;
}

bool Server::activate(Request req) {
  Active a;
  a.id = req.id;
  a.tenant = req.tenant;
  {
    std::lock_guard lk(mu_);
    auto it = submitted_.find(req.id);
    a.t_submit_ns = it == submitted_.end() ? 0 : it->second;
  }
  if (req.deadline_ms > 0.0 && a.t_submit_ns)
    a.deadline_ns =
        a.t_submit_ns + static_cast<std::uint64_t>(req.deadline_ms * 1e6);
  // A request that overshot its deadline while still QUEUED is reaped
  // here, before stages 1-2 are built for nothing. An earlier incarnation's
  // checkpoint (if any) survives: complete() keeps it for kDeadline.
  if (a.deadline_ns && obs::mono_ns() > a.deadline_ns) {
    Outcome out;
    out.reject = Reject::kDeadline;
    out.error = "deadline exceeded (" + std::to_string(req.deadline_ms) +
                " ms) while queued";
    complete(a, std::move(out));
    return false;
  }
  try {
    if (!req.gs_model.empty()) {
      auto m = models_->get(req.gs_model);
      if (!m)
        throw std::invalid_argument("unknown model '" + req.gs_model + "'");
      req.opt.gs_model = std::move(m);
    }
    if (!req.xs_model.empty()) {
      auto m = models_->get(req.xs_model);
      if (!m)
        throw std::invalid_argument("unknown model '" + req.xs_model + "'");
      req.opt.xs_model = std::move(m);
    }
    if (!opt_.checkpoint_dir.empty()) {
      const std::string ck = ckpt_path(opt_.checkpoint_dir, req.id);
      req.opt.checkpoint_path = ck;
      if (req.opt.checkpoint_every <= 0)
        req.opt.checkpoint_every = opt_.checkpoint_every;
      // Warm restart: a checkpoint left by a killed predecessor resumes
      // the scenario instead of rerunning stages 1-2.
      if (std::filesystem::exists(ck)) req.opt.restore_path = ck;
    }
    a.session =
        std::make_unique<pipeline::Session>(std::move(req.opt), req.dark);
    a.session->prepare();
  } catch (const std::exception& e) {
    Outcome out;
    out.error = e.what();
    complete(a, std::move(out));
    return false;
  }
  active_.push_back(std::move(a));
  return true;
}

void Server::scheduler_loop() {
  auto& reg = obs::Registry::global();
  auto& active_gauge = reg.gauge("serve.active_sessions");
  long round = 0;
  bool term_raised = false;

  for (;;) {
    // Graceful drain: admission is already closed (drain() stopped the
    // queue); checkpoint every live session and reap everything with
    // kStopped — checkpoints KEPT — so a restart resumes the whole load.
    bool draining;
    {
      std::lock_guard lk(mu_);
      draining = draining_;
    }
    if (draining) {
      Request r;
      while (queue_.pop(r)) {
        Active a;
        a.id = r.id;
        a.tenant = r.tenant;
        {
          std::lock_guard lk(mu_);
          auto it = submitted_.find(r.id);
          a.t_submit_ns = it == submitted_.end() ? 0 : it->second;
        }
        Outcome out;
        out.reject = Reject::kStopped;
        out.error = "server draining";
        complete(a, std::move(out));
        r = Request{};
      }
      for (auto& a : active_) {
        Outcome out;
        out.reject = Reject::kStopped;
        out.error = "server draining";
        out.result = a.session->result();
        if (!opt_.checkpoint_dir.empty()) {
          try {
            a.session->write_checkpoint(ckpt_path(opt_.checkpoint_dir, a.id));
          } catch (const std::exception& e) {
            out.error = std::string("drain checkpoint failed: ") + e.what();
          }
        }
        complete(a, std::move(out));
      }
      active_.clear();
      break;
    }

    // Admit queued requests into free slots (tenant round-robin).
    {
      Request r;
      while (active_.size() < opt_.max_inflight && queue_.pop(r)) {
        activate(std::move(r));
        r = Request{};
      }
    }
    active_gauge.set(static_cast<double>(active_.size()));

    if (active_.empty()) {
      std::unique_lock lk(mu_);
      if (queue_.size() == 0) {
        if (stopping_) break;
        cv_work_.wait(
            lk, [&] { return stopping_ || draining_ || queue_.size() > 0; });
        if (stopping_ && queue_.size() == 0) break;
      }
      continue;
    }

    ++round;
    if (opt_.kill_at_round > 0 && round >= opt_.kill_at_round) {
      // Deterministic mid-load crash for the warm-restart tests: a real
      // SIGKILL, so no destructor or flush softens the exercise.
      std::raise(SIGKILL);
    }
    if (opt_.term_at_round > 0 && round >= opt_.term_at_round &&
        !term_raised) {
      // Deterministic drain trigger: the real SIGTERM, delivered through
      // the daemon's handler exactly as an orchestrator would send it.
      term_raised = true;
      std::raise(SIGTERM);
    }
    // Chaos: injected scheduler stall / straggle (stall@.../slow_rank@...
    // fault entries, ctest -L chaos) — the scheduler sleeps, deadlines
    // keep ticking, and the deadline reap below must still fire.
    if (const double d = ft::hook_delay(-1); d > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(d));

    // Cooperative deadline enforcement at step boundaries: reap expired
    // sessions before spending another step on them. The session
    // checkpoints first (complete() keeps it for kDeadline), so the
    // tenant can resubmit and resume. Cost when no deadline is armed: one
    // pointer walk, no clock read.
    {
      bool any_deadline = false;
      for (const auto& a : active_)
        if (a.deadline_ns) {
          any_deadline = true;
          break;
        }
      if (any_deadline) {
        const std::uint64_t now = obs::mono_ns();
        for (std::size_t i = 0; i < active_.size();) {
          Active& a = active_[i];
          if (!a.deadline_ns || now <= a.deadline_ns) {
            ++i;
            continue;
          }
          Outcome out;
          out.reject = Reject::kDeadline;
          out.error = "deadline exceeded";
          out.result = a.session->result();
          if (!opt_.checkpoint_dir.empty()) {
            try {
              a.session->write_checkpoint(
                  ckpt_path(opt_.checkpoint_dir, a.id));
            } catch (const std::exception& e) {
              out.error = std::string("deadline checkpoint failed: ") +
                          e.what();
            }
          }
          complete(a, std::move(out));
          active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    if (active_.empty()) continue;

    // One stage-3 step for every active session this round. Sessions that
    // can join a fused inference batch are grouped by model identity and
    // stepped through the micro-batcher; the rest (kExact, degraded)
    // step() individually.
    std::vector<std::pair<pipeline::Session*, std::string>> failures;
    std::vector<Active*> solo;
    std::map<std::pair<const void*, const void*>,
             std::vector<pipeline::Session*>>
        groups;
    for (auto& a : active_) {
      if (opt_.batch && a.session->wants_neural_forces())
        groups[{a.session->options().gs_model.get(),
                a.session->options().xs_model.get()}]
            .push_back(a.session.get());
      else
        solo.push_back(&a);
    }
    for (auto& [key, group] : groups) batcher_.step_group(group, &failures);
    for (Active* a : solo) {
      try {
        a->session->step();
      } catch (const std::exception& e) {
        failures.emplace_back(a->session.get(), e.what());
      }
    }

    // Reap terminal sessions (completed or failed).
    for (std::size_t i = 0; i < active_.size();) {
      Active& a = active_[i];
      std::string error;
      for (const auto& [s, what] : failures)
        if (s == a.session.get()) error = what.empty() ? "failed" : what;
      if (!error.empty()) {
        Outcome out;
        out.error = std::move(error);
        out.result = a.session->result();
        complete(a, std::move(out));
      } else if (a.session->done()) {
        Outcome out;
        out.ok = true;
        out.result = a.session->result();
        complete(a, std::move(out));
      } else {
        ++i;
        continue;
      }
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  active_gauge.set(0.0);
}

} // namespace mlmd::serve
