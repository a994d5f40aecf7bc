// Shared-memory transport (DESIGN.md Sec. 11): process-per-rank SimComm
// backend. run_shm forks one worker process per rank (the caller hosts
// rank 0, so rank-0 side effects land in the calling process exactly as
// with the threaded backend); collectives and point-to-point frames move
// through one mmap'd MAP_SHARED|MAP_ANONYMOUS region created before the
// forks, with a process-shared robust mutex + condvar (futex-backed on
// Linux) for signaling.
//
// Region layout (offsets 64-byte aligned, all zero-initialized by mmap):
//
//   ShmControl                 lock, condvar, abort poison, first-error
//                              claim, barrier counters, TrafficStats
//   ShmChannel[nranks]         collective slots: per-rank contribution
//                              total + one kCollCap chunk per data round
//   ShmRing[nranks * nranks]   p2p byte rings, one per (src,dst) pair,
//                              frames are [i32 tag][u64 len][payload];
//                              frames larger than the ring stream through
//   ShmRankTraffic[nranks]     fixed-op-id per-rank calls/bytes/wait
//   obs export[nranks]         per-rank counter/histogram deltas a child
//                              publishes at exit; the parent merges them
//                              into its registry after reaping
//
// Collectives run in lockstep: publish totals, sync, read totals, sync,
// then ceil(max_total / kCollCap) data rounds of write-chunk / sync /
// read-chunk / sync. The sync points reuse one sense-reversing barrier —
// every rank passes the identical sequence, so one counter pair serves
// the public barrier() and all internal syncs.
//
// Abort poisoning and the first-error claim share a single critical
// section, so a victim rank unwinding with the induced "SimComm aborted"
// error can never out-claim the origin: the root cause wins, exactly as
// the threaded backend's err_mu ordering guarantees. Exception *types*
// cannot cross the process boundary, so the winner also records an error
// tag; the parent reconstructs the standard types, rethrows its own
// rank-0 exceptions natively, and for unknown (non-std) types replays
// the body on the in-process backend to reproduce the original throw.

#include <pthread.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mlmd/ft/fault.hpp"
#include "mlmd/par/simcomm.hpp"
#include "mlmd/par/thread_pool.hpp"

namespace mlmd::par {
namespace detail {
namespace {

// Wait/overlap accounting uses the shared Transport::mono_seconds clock
// (member lookup resolves the unqualified calls below to it).

constexpr std::size_t kCollCap = 1u << 20; // collective chunk bytes per round
constexpr std::size_t kRingCap = 1u << 16; // p2p ring bytes per (src,dst)
constexpr std::size_t kObsCap = 1u << 16;  // per-rank obs export area
constexpr std::size_t kWhatCap = 512;      // abort reason / error message cap
constexpr std::size_t kHdrSize = 12;       // p2p frame header: i32 tag, u64 len

// Error taxonomy for cross-process exception propagation. Everything a
// rank can throw is mapped to a tag + what() string in shared memory;
// the parent reconstructs the same dynamic type on rethrow.
enum class ErrTag : int {
  kNone = 0,
  kInjectedCrash,
  kTransientCommFault,
  kTransientError,
  kInvalidArgument,
  kOutOfRange,
  kLogicError,
  kRuntimeError,
  kStdException,
  kStall, // progress timeout expired (ft::StallError)
  kUnknown, // non-std type: parent replays on inproc to reproduce it
};

// Fixed op-id table for per-rank traffic in shared memory. Must cover
// every literal Comm passes; rank_traffic() rebuilds the map omitting
// untouched ops so the result is byte-identical to the threaded backend.
constexpr const char* kOpNames[] = {"barrier", "broadcast", "gather",
                                    "allgatherv", "allreduce", "send",
                                    "recv", "other"};
constexpr int kNumOps = 8;

int op_index(const char* op) {
  for (int i = 0; i < kNumOps - 1; ++i)
    if (std::strcmp(kOpNames[i], op) == 0) return i;
  return kNumOps - 1;
}

struct ShmRankTraffic {
  std::uint64_t calls[kNumOps];
  std::uint64_t bytes[kNumOps];
  double wait_seconds;
  double overlap_seconds;
  std::uint64_t handles_posted;
  std::uint64_t handles_completed;
};

// Adaptive spin-then-park tuning for blocked receives and sync points: a
// short lock-free doorbell spin (the common case when the peer is already
// streaming), then condvar parks whose slice doubles from 100us up to the
// 50ms robustness cap — every waiter still re-checks the abort flag at
// least every 50ms even if the poisoning rank died before broadcasting.
constexpr int kDoorbellSpins = 4096;
constexpr std::uint64_t kMinParkNs = 100ull * 1000;        // 100 us
constexpr std::uint64_t kMaxParkNs = 50ull * 1000 * 1000;  // 50 ms

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Comm-entry fault hooks: the injected crash/transient faults
/// (hook_comm), plus the liveness-chaos delays (stall / slow_rank) slept
/// HERE, before any shared state or lock is touched — to the peers this
/// rank is simply late, which is exactly what the progress timeout must
/// detect.
void inject_comm_faults(int rank) {
  ft::hook_comm(rank);
  if (const double d = ft::hook_delay(rank); d > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

struct ShmControl {
  pthread_mutex_t mu;
  pthread_cond_t cv;

  int aborted;
  char abort_reason[kWhatCap];

  // First-error claim (set atomically with the abort, first writer wins).
  int err_rank; // -1 while no error recorded
  int err_tag;
  char err_what[kWhatCap];

  // Sense-reversing barrier, shared by barrier() and the collective
  // lockstep sync points.
  int barrier_arrived;
  std::uint64_t barrier_generation;

  TrafficStats stats;
};

struct ShmChannel {
  std::uint64_t total; // this rank's full contribution size for the round
  unsigned char data[kCollCap];
};

struct ShmRing {
  std::uint64_t head; // monotonic read offset (index = off % kRingCap)
  std::uint64_t tail; // monotonic write offset
  unsigned char data[kRingCap];
};

// Per-rank obs export records (child → parent registry merge).
struct ObsHeader {
  std::uint32_t n_counters;
  std::uint32_t n_hists;
};
struct ObsCounterRec {
  char name[56];
  std::uint64_t delta;
};
struct ObsHistRec {
  char name[56];
  std::uint64_t count;
  double sum, minv, maxv;
  std::uint64_t n_buckets; // BucketDelta pairs that follow the record
};
static_assert(sizeof(ObsHistRec) % 8 == 0 &&
              sizeof(obs::Histogram::BucketDelta) % 8 == 0);

struct ObsBaseline {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::Registry::HistogramSample> hists;
};

ObsBaseline capture_obs_baseline() {
  ObsBaseline base;
  auto& reg = obs::Registry::global();
  for (auto& c : reg.counters_snapshot()) base.counters[c.name] = c.value;
  for (auto& h : reg.histograms_snapshot()) base.hists[h.name] = h;
  return base;
}

std::size_t align_up(std::size_t x) { return (x + 63u) & ~std::size_t{63}; }

void copy_what(char* dst, const std::string& s) {
  const std::size_t n = s.size() < kWhatCap - 1 ? s.size() : kWhatCap - 1;
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

// Map the in-flight exception (rethrown inside this function) to a tag.
ErrTag classify_current(std::string& what) {
  try {
    throw;
  } catch (const ft::InjectedCrash& e) {
    what = e.what();
    return ErrTag::kInjectedCrash;
  } catch (const ft::TransientCommFault& e) {
    what = e.what();
    return ErrTag::kTransientCommFault;
  } catch (const ft::TransientError& e) {
    what = e.what();
    return ErrTag::kTransientError;
  } catch (const ft::StallError& e) {
    what = e.what();
    return ErrTag::kStall;
  } catch (const std::invalid_argument& e) {
    what = e.what();
    return ErrTag::kInvalidArgument;
  } catch (const std::out_of_range& e) {
    what = e.what();
    return ErrTag::kOutOfRange;
  } catch (const std::logic_error& e) {
    what = e.what();
    return ErrTag::kLogicError;
  } catch (const std::runtime_error& e) {
    what = e.what();
    return ErrTag::kRuntimeError;
  } catch (const std::exception& e) {
    what = e.what();
    return ErrTag::kStdException;
  } catch (...) {
    what = "unknown exception";
    return ErrTag::kUnknown;
  }
}

[[noreturn]] void rethrow_tag(ErrTag tag, const std::string& what) {
  switch (tag) {
    case ErrTag::kInjectedCrash: throw ft::InjectedCrash(what);
    case ErrTag::kTransientCommFault: throw ft::TransientCommFault(what);
    case ErrTag::kTransientError: throw ft::TransientError(what);
    case ErrTag::kInvalidArgument: throw std::invalid_argument(what);
    case ErrTag::kOutOfRange: throw std::out_of_range(what);
    case ErrTag::kLogicError: throw std::logic_error(what);
    case ErrTag::kStall: throw ft::StallError(what);
    default: throw std::runtime_error(what);
  }
}

class ShmTransport : public Transport {
public:
  explicit ShmTransport(int nranks) : nranks_(nranks) {
    if (nranks <= 0) throw std::invalid_argument("SimComm: nranks must be > 0");
    const auto n = static_cast<std::size_t>(nranks);
    off_chan_ = align_up(sizeof(ShmControl));
    off_rings_ = align_up(off_chan_ + n * sizeof(ShmChannel));
    off_traffic_ = align_up(off_rings_ + n * n * sizeof(ShmRing));
    off_obs_ = align_up(off_traffic_ + n * sizeof(ShmRankTraffic));
    size_ = align_up(off_obs_ + n * kObsCap);

    void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
      throw std::runtime_error("SimComm: mmap of shm transport region failed");
    base_ = static_cast<unsigned char*>(p); // zero-filled by the kernel

    ctl_ = reinterpret_cast<ShmControl*>(base_);
    ctl_->err_rank = -1;

    pthread_mutexattr_t ma;
    pthread_mutexattr_init(&ma);
    pthread_mutexattr_setpshared(&ma, PTHREAD_PROCESS_SHARED);
    // Robust: a rank SIGKILLed inside the critical section must not
    // deadlock the group — the next locker repairs the mutex and the
    // group is poisoned instead.
    pthread_mutexattr_setrobust(&ma, PTHREAD_MUTEX_ROBUST);
    pthread_mutex_init(&ctl_->mu, &ma);
    pthread_mutexattr_destroy(&ma);

    pthread_condattr_t ca;
    pthread_condattr_init(&ca);
    pthread_condattr_setpshared(&ca, PTHREAD_PROCESS_SHARED);
    pthread_condattr_setclock(&ca, CLOCK_MONOTONIC);
    pthread_cond_init(&ctl_->cv, &ca);
    pthread_condattr_destroy(&ca);
  }

  ~ShmTransport() override {
    // Only the parent runs this (children _Exit); the kernel drops the
    // children's references with their address spaces.
    ::munmap(base_, size_);
  }

  int size() const override { return nranks_; }

  void barrier(int rank) override {
    inject_comm_faults(rank);
    double waited = 0.0;
    {
      Locked lk(this);
      throw_if_aborted_locked();
      waited = sync_locked();
    }
    account(rank, "barrier", 0, waited);
  }

  std::vector<std::byte> exchange(int rank, std::span<const std::byte> contrib,
                                  int root, bool to_all,
                                  const char* op) override {
    // Hooks fire before any shared state is touched, so a transient fault
    // thrown here leaves the group consistent and the whole collective can
    // simply be retried (ft::with_retry), as with the threaded backend.
    inject_comm_faults(rank);
    // Injected in-transit corruption hits the deposited copy, never the
    // caller's buffer (the wire analogue of a link bit-flip).
    std::vector<std::byte> dep(contrib.begin(), contrib.end());
    ft::hook_payload(rank, std::span<std::byte>(dep));

    const auto n = static_cast<std::size_t>(nranks_);
    double waited = 0.0;
    std::vector<std::uint64_t> totals(n);
    std::vector<std::uint64_t> offsets(n);
    std::uint64_t grand = 0, max_total = 0;
    const bool receiver = to_all || rank == root;
    std::vector<std::byte> result;
    {
      Locked lk(this);
      throw_if_aborted_locked();
      chan(rank)->total = dep.size();
      waited += sync_locked(); // totals published
      for (std::size_t r = 0; r < n; ++r) {
        totals[r] = chan(static_cast<int>(r))->total;
        offsets[r] = grand;
        grand += totals[r];
        if (totals[r] > max_total) max_total = totals[r];
      }
      waited += sync_locked(); // all totals read; channels reusable
      if (receiver) result.resize(grand);

      const std::uint64_t rounds = (max_total + kCollCap - 1) / kCollCap;
      for (std::uint64_t round = 0; round < rounds; ++round) {
        const std::uint64_t off = round * kCollCap;
        if (off < dep.size()) {
          const std::size_t len =
              std::min<std::size_t>(kCollCap, dep.size() - off);
          std::memcpy(chan(rank)->data, dep.data() + off, len);
        }
        waited += sync_locked(); // chunks published
        if (receiver) {
          for (std::size_t r = 0; r < n; ++r) {
            if (off >= totals[r]) continue;
            const std::size_t len =
                std::min<std::size_t>(kCollCap, totals[r] - off);
            std::memcpy(result.data() + offsets[r] + off,
                        chan(static_cast<int>(r))->data, len);
          }
        }
        waited += sync_locked(); // chunks consumed; channels reusable
      }
      ctl_->stats.collective_ops += 1;
      ctl_->stats.collective_bytes += contrib.size();
    }
    account(rank, op, contrib.size(), waited);
    return result;
  }

  void send(int src, int dst, int tag,
            std::span<const std::byte> payload) override {
    inject_comm_faults(src);
    if (dst < 0 || dst >= nranks_)
      throw std::out_of_range("SimComm::send: bad rank");
    if (dst == src)
      throw std::invalid_argument(
          "SimComm::send: self-send can never match a blocking peer recv");
    unsigned char hdr[kHdrSize];
    const std::int32_t t32 = tag;
    const std::uint64_t len = payload.size();
    std::memcpy(hdr, &t32, 4);
    std::memcpy(hdr + 4, &len, 8);
    double waited = 0.0;
    {
      Locked lk(this);
      throw_if_aborted_locked();
      waited += stream_out_locked(src, dst, hdr, kHdrSize);
      waited += stream_out_locked(
          src, dst, reinterpret_cast<const unsigned char*>(payload.data()),
          payload.size());
      ctl_->stats.messages += 1;
      ctl_->stats.p2p_bytes += payload.size();
      // Chaos drop_doorbell: skip the receiver's wakeup broadcast. The
      // bytes ARE in the ring (stream_out_locked published the tail), so
      // a parked receiver recovers via its bounded park slices (<= 50 ms)
      // — this injects the lost-wakeup race the slices exist to absorb.
      if (!ft::hook_drop_doorbell(src)) pthread_cond_broadcast(&ctl_->cv);
    }
    account(src, "send", payload.size(), waited);
  }

  std::vector<std::byte> recv(int dst, int src, int tag) override {
    inject_comm_faults(dst);
    // Validate eagerly (mirroring send): a bad source rank would otherwise
    // block forever on a message that can never arrive.
    if (src < 0 || src >= nranks_)
      throw std::out_of_range("SimComm::recv: bad rank");
    if (src == dst)
      throw std::invalid_argument(
          "SimComm::recv: self-receive can never match a peer send");
    // A frame drained past earlier (tag mismatch) satisfies this recv
    // without touching the ring: the out-of-order tag matching the
    // threaded mailbox map provides.
    const PendKey key{dst, src, tag};
    if (auto it = pending_.find(key);
        it != pending_.end() && !it->second.empty()) {
      std::vector<std::byte> payload = std::move(it->second.front());
      it->second.erase(it->second.begin());
      account(dst, "recv", payload.size(), 0.0);
      return payload;
    }

    std::vector<std::byte> payload;
    bool have = false;
    double waited = 0.0;
    {
      Locked lk(this);
      throw_if_aborted_locked();
      drain_locked(dst, src, tag, payload, have);
    }
    const double budget = progress_timeout();
    std::uint64_t slice_ns = kMinParkNs;
    while (!have) {
      // Doorbell progress: ring_put publishes the producer tail with
      // release order, so a lock-free acquire poll sees new bytes without
      // a condvar round-trip. Spin briefly (the common case when the peer
      // is already streaming), then park in adaptive slices.
      ShmRing* rg = ring(src, dst);
      const std::uint64_t seen =
          __atomic_load_n(&rg->tail, __ATOMIC_ACQUIRE);
      const double w0 = mono_seconds();
      bool rung = false;
      for (int i = 0; i < kDoorbellSpins && !rung; ++i) {
        rung = __atomic_load_n(&rg->tail, __ATOMIC_ACQUIRE) != seen ||
               __atomic_load_n(&ctl_->aborted, __ATOMIC_RELAXED) != 0;
        if (!rung) cpu_relax();
      }
      {
        Locked lk(this);
        throw_if_aborted_locked();
        if (rung) {
          slice_ns = kMinParkNs;
        } else {
          wait_slice_locked(slice_ns);
          slice_ns = std::min<std::uint64_t>(slice_ns * 2, kMaxParkNs);
          throw_if_aborted_locked();
        }
        waited += mono_seconds() - w0;
        drain_locked(dst, src, tag, payload, have);
        if (!have && budget > 0.0 && waited > budget)
          stall_locked("recv", budget);
      }
    }
    account(dst, "recv", payload.size(), waited);
    return payload;
  }

  void recv_into(int dst, int src, int tag,
                 std::vector<std::byte>& out) override {
    auto payload = recv(dst, src, tag);
    out.assign(payload.begin(), payload.end());
    // Recycle the frame buffer: drain_locked seeds the next frame's
    // partial from spare_, so the steady-state send -> recv_into loop
    // performs zero heap allocations once capacities have warmed up.
    if (spare_.size() < 64) {
      payload.clear();
      spare_.push_back(std::move(payload));
    }
  }

  void abort(const std::string& reason) override {
    Locked lk(this);
    poison_locked(reason);
  }

  TrafficStats stats() const override {
    Locked lk(const_cast<ShmTransport*>(this));
    return ctl_->stats;
  }

  RankTraffic rank_traffic(int rank) const override {
    if (rank < 0 || rank >= nranks_)
      throw std::out_of_range("SimComm::rank_traffic: bad rank");
    Locked lk(const_cast<ShmTransport*>(this));
    const ShmRankTraffic* t = traffic(rank);
    RankTraffic out;
    for (int i = 0; i < kNumOps; ++i) {
      if (t->calls[i] == 0) continue; // untouched ops stay absent, as inproc
      out.ops[kOpNames[i]] = RankOpStats{t->calls[i], t->bytes[i]};
    }
    out.wait_seconds = t->wait_seconds;
    out.overlap_seconds = t->overlap_seconds;
    out.handles_posted = t->handles_posted;
    out.handles_completed = t->handles_completed;
    return out;
  }

  void reset_stats() override {
    Locked lk(this);
    ctl_->stats = {};
    for (int r = 0; r < nranks_; ++r) *traffic(r) = ShmRankTraffic{};
  }

  // ---- run_shm support (not part of the Transport interface) ----

  /// Record the group's first error and poison it, atomically. Returns
  /// true if this call won the claim (its exception is the root cause).
  bool claim_error(int rank, ErrTag tag, const std::string& what) {
    Locked lk(this);
    bool won = false;
    if (ctl_->err_rank < 0) {
      ctl_->err_rank = rank;
      ctl_->err_tag = static_cast<int>(tag);
      copy_what(ctl_->err_what, what);
      won = true;
    }
    poison_locked("rank " + std::to_string(rank) + " threw: " + what);
    return won;
  }

  bool has_error() const {
    Locked lk(const_cast<ShmTransport*>(this));
    return ctl_->err_rank >= 0;
  }

  void fetch_error(int& rank, ErrTag& tag, std::string& what) const {
    Locked lk(const_cast<ShmTransport*>(this));
    rank = ctl_->err_rank;
    tag = static_cast<ErrTag>(ctl_->err_tag);
    what = ctl_->err_what;
  }

  /// Child side: publish this process's registry deltas (vs. the
  /// post-fork baseline) into this rank's export area. Counters export
  /// value deltas; histograms export count/sum deltas, current extremes
  /// (the inherited pre-fork extremes are idempotent under merge) and
  /// the non-zero bucket deltas as (index, delta) pairs after the record.
  /// Gauges are last-write-wins and are deliberately not merged.
  void export_obs(int rank, const ObsBaseline& base) {
    unsigned char* area = obs_area(rank);
    auto* hd = reinterpret_cast<ObsHeader*>(area);
    std::size_t used = sizeof(ObsHeader);
    auto& reg = obs::Registry::global();

    for (auto& c : reg.counters_snapshot()) {
      std::uint64_t before = 0;
      if (auto it = base.counters.find(c.name); it != base.counters.end())
        before = it->second;
      if (c.value == before || c.name.size() >= sizeof(ObsCounterRec{}.name))
        continue;
      if (used + sizeof(ObsCounterRec) > kObsCap) break;
      auto* rec = reinterpret_cast<ObsCounterRec*>(area + used);
      std::memset(rec->name, 0, sizeof(rec->name));
      std::memcpy(rec->name, c.name.data(), c.name.size());
      rec->delta = c.value - before;
      used += sizeof(ObsCounterRec);
      hd->n_counters += 1;
    }
    for (auto& h : reg.histograms_snapshot()) {
      obs::Registry::HistogramSample before{};
      if (auto it = base.hists.find(h.name); it != base.hists.end())
        before = it->second;
      if (h.count == before.count || h.name.size() >= sizeof(ObsHistRec{}.name))
        continue;
      std::vector<obs::Histogram::BucketDelta> deltas;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        const std::uint64_t d =
            h.buckets[i] - (before.buckets.empty() ? 0 : before.buckets[i]);
        if (d) deltas.push_back({i, d});
      }
      const std::size_t bytes =
          sizeof(ObsHistRec) + deltas.size() * sizeof(deltas[0]);
      if (used + bytes > kObsCap) break;
      auto* rec = reinterpret_cast<ObsHistRec*>(area + used);
      std::memset(rec->name, 0, sizeof(rec->name));
      std::memcpy(rec->name, h.name.data(), h.name.size());
      rec->count = h.count - before.count;
      rec->sum = h.sum - before.sum;
      rec->minv = h.min;
      rec->maxv = h.max;
      rec->n_buckets = deltas.size();
      std::memcpy(rec + 1, deltas.data(), deltas.size() * sizeof(deltas[0]));
      used += bytes;
      hd->n_hists += 1;
    }
  }

  /// Parent side, after every child is reaped: fold the children's
  /// exported deltas into this process's registry so the merged counters
  /// match what the threaded backend would have accumulated directly.
  void merge_obs() {
    auto& reg = obs::Registry::global();
    for (int r = 1; r < nranks_; ++r) {
      const unsigned char* area = obs_area(r);
      const auto* hd = reinterpret_cast<const ObsHeader*>(area);
      std::size_t used = sizeof(ObsHeader);
      for (std::uint32_t i = 0; i < hd->n_counters; ++i) {
        const auto* rec = reinterpret_cast<const ObsCounterRec*>(area + used);
        reg.counter(rec->name).add(rec->delta);
        used += sizeof(ObsCounterRec);
      }
      for (std::uint32_t i = 0; i < hd->n_hists; ++i) {
        const auto* rec = reinterpret_cast<const ObsHistRec*>(area + used);
        const std::span buckets(
            reinterpret_cast<const obs::Histogram::BucketDelta*>(rec + 1),
            rec->n_buckets);
        reg.histogram(rec->name).merge(rec->count, rec->sum, rec->minv,
                                       rec->maxv, buckets);
        used += sizeof(ObsHistRec) + buckets.size_bytes();
      }
    }
  }

private:
  // RAII robust-mutex lock. EOWNERDEAD (a rank died mid-critical-section)
  // repairs the mutex and poisons the group instead of deadlocking it.
  struct Locked {
    explicit Locked(ShmTransport* t) : t_(t) {
      const int rc = pthread_mutex_lock(&t_->ctl_->mu);
      if (rc == EOWNERDEAD) {
        pthread_mutex_consistent(&t_->ctl_->mu);
        t_->poison_locked("a rank died inside the transport critical section");
      }
    }
    ~Locked() { pthread_mutex_unlock(&t_->ctl_->mu); }
    Locked(const Locked&) = delete;
    Locked& operator=(const Locked&) = delete;
    ShmTransport* t_;
  };

  ShmChannel* chan(int r) const {
    return reinterpret_cast<ShmChannel*>(base_ + off_chan_) + r;
  }
  ShmRing* ring(int src, int dst) const {
    return reinterpret_cast<ShmRing*>(base_ + off_rings_) +
           (static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
            static_cast<std::size_t>(dst));
  }
  ShmRankTraffic* traffic(int r) const {
    return reinterpret_cast<ShmRankTraffic*>(base_ + off_traffic_) + r;
  }
  unsigned char* obs_area(int r) const {
    return base_ + off_obs_ + static_cast<std::size_t>(r) * kObsCap;
  }

  void poison_locked(const std::string& reason) {
    if (!ctl_->aborted) {
      ctl_->aborted = 1;
      copy_what(ctl_->abort_reason, reason);
    }
    pthread_cond_broadcast(&ctl_->cv);
  }

  /// Progress budget expired while parked (DESIGN.md Sec. 15): count the
  /// detection, poison the group — so every OTHER parked rank unwinds
  /// within one park slice too — and throw the typed stall error, which
  /// crosses the process boundary as ErrTag::kStall. Caller holds the
  /// lock.
  [[noreturn]] void stall_locked(const char* op, double budget) {
    static auto& stalls =
        obs::Registry::global().counter("simcomm.stalls.detected");
    stalls.add(1);
    const std::string what = std::string("no progress in ") + op + " for " +
                             std::to_string(budget) + " s (peer stalled?)";
    poison_locked(what);
    throw ft::StallError("SimComm stall: " + what);
  }

  void throw_if_aborted_locked() const {
    if (ctl_->aborted)
      throw std::runtime_error(std::string("SimComm aborted: ") +
                               ctl_->abort_reason);
  }

  /// Bounded condvar wait: lost-wakeup-proof across processes and
  /// guarantees every waiter eventually re-checks the abort flag even if
  /// the poisoning rank died before broadcasting. The slice is capped at
  /// kMaxParkNs (50 ms) regardless of what the caller asks for.
  void wait_slice_locked(std::uint64_t slice_ns = kMaxParkNs) const {
    if (slice_ns > kMaxParkNs) slice_ns = kMaxParkNs;
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    ts.tv_nsec += static_cast<long>(slice_ns);
    while (ts.tv_nsec >= 1000000000) {
      ts.tv_sec += 1;
      ts.tv_nsec -= 1000000000;
    }
    const int rc = pthread_cond_timedwait(&ctl_->cv, &ctl_->mu, &ts);
    if (rc == EOWNERDEAD) {
      pthread_mutex_consistent(&ctl_->mu);
      const_cast<ShmTransport*>(this)->poison_locked(
          "a rank died inside the transport critical section");
    }
  }

  /// One lockstep sync point (sense-reversing barrier over the shared
  /// counters). Caller holds the lock. Returns seconds spent blocked.
  double sync_locked() {
    const std::uint64_t gen = ctl_->barrier_generation;
    if (++ctl_->barrier_arrived == nranks_) {
      ctl_->barrier_arrived = 0;
      ++ctl_->barrier_generation;
      pthread_cond_broadcast(&ctl_->cv);
      return 0.0;
    }
    const double budget = progress_timeout();
    const double w0 = mono_seconds();
    // Adaptive slices: lockstep peers normally arrive within microseconds,
    // so start short and back off toward the 50 ms robustness cap.
    std::uint64_t slice_ns = kMinParkNs;
    while (!ctl_->aborted && ctl_->barrier_generation == gen) {
      if (budget > 0.0 && mono_seconds() - w0 > budget)
        stall_locked("sync", budget);
      wait_slice_locked(slice_ns);
      slice_ns = std::min<std::uint64_t>(slice_ns * 2, kMaxParkNs);
    }
    const double waited = mono_seconds() - w0;
    throw_if_aborted_locked();
    return waited;
  }

  static std::size_t ring_space(const ShmRing* rg) {
    return kRingCap - static_cast<std::size_t>(rg->tail - rg->head);
  }
  static std::size_t ring_data(const ShmRing* rg) {
    return static_cast<std::size_t>(rg->tail - rg->head);
  }
  static void ring_put(ShmRing* rg, const unsigned char* p, std::size_t n) {
    const std::size_t at = static_cast<std::size_t>(rg->tail) % kRingCap;
    const std::size_t first = std::min(n, kRingCap - at);
    std::memcpy(rg->data + at, p, first);
    std::memcpy(rg->data, p + first, n - first);
    // Release-publish the new tail: this is the receiver's doorbell. The
    // lock-free acquire poll in recv() pairs with it; every other tail
    // access stays under the control mutex.
    __atomic_store_n(&rg->tail, rg->tail + n, __ATOMIC_RELEASE);
  }
  static void ring_get(ShmRing* rg, unsigned char* p, std::size_t n) {
    const std::size_t at = static_cast<std::size_t>(rg->head) % kRingCap;
    const std::size_t first = std::min(n, kRingCap - at);
    std::memcpy(p, rg->data + at, first);
    std::memcpy(p + first, rg->data, n - first);
    rg->head += n;
  }

  /// Blocking framed write into ring(src,dst); streams in pieces when the
  /// payload exceeds the free space (the receiver drains concurrently).
  /// Caller holds the lock. Returns seconds spent blocked on a full ring.
  double stream_out_locked(int src, int dst, const unsigned char* p,
                           std::size_t n) {
    ShmRing* rg = ring(src, dst);
    const double budget = progress_timeout();
    double waited = 0.0;
    std::size_t done = 0;
    while (done < n) {
      throw_if_aborted_locked();
      const std::size_t space = ring_space(rg);
      if (space == 0) {
        if (budget > 0.0 && waited > budget) stall_locked("send", budget);
        pthread_cond_broadcast(&ctl_->cv);
        const double w0 = mono_seconds();
        wait_slice_locked();
        waited += mono_seconds() - w0;
        continue;
      }
      const std::size_t k = std::min(space, n - done);
      ring_put(rg, p + done, k);
      done += k;
      pthread_cond_broadcast(&ctl_->cv);
    }
    return waited;
  }

  /// Drain whatever ring(src,dst) currently holds into completed frames.
  /// A frame matching `tag` completes the recv (`have` = true, payload
  /// moved out); mismatching frames queue locally for a later recv.
  /// Caller holds the lock.
  void drain_locked(int dst, int src, int tag, std::vector<std::byte>& payload,
                    bool& have) {
    ShmRing* rg = ring(src, dst);
    RingCursor& cur = cursors_[{dst, src}];
    while (!have) {
      if (!cur.have_hdr) {
        if (ring_data(rg) < kHdrSize) return;
        unsigned char hdr[kHdrSize];
        ring_get(rg, hdr, kHdrSize);
        std::int32_t t32;
        std::uint64_t len;
        std::memcpy(&t32, hdr, 4);
        std::memcpy(&len, hdr + 4, 8);
        cur.tag = t32;
        cur.remaining = len;
        // Seed the frame buffer from the recycled pool (recv_into retires
        // buffers there) so steady-state frames reuse warmed capacity.
        if (cur.partial.capacity() == 0 && !spare_.empty()) {
          cur.partial = std::move(spare_.back());
          spare_.pop_back();
        }
        cur.partial.clear();
        cur.partial.reserve(static_cast<std::size_t>(len));
        cur.have_hdr = true;
        pthread_cond_broadcast(&ctl_->cv); // header space freed
      }
      const std::size_t avail = ring_data(rg);
      const std::size_t k =
          std::min<std::size_t>(avail, static_cast<std::size_t>(cur.remaining));
      if (k > 0) {
        const std::size_t old = cur.partial.size();
        cur.partial.resize(old + k);
        ring_get(rg, reinterpret_cast<unsigned char*>(cur.partial.data() + old),
                 k);
        cur.remaining -= k;
        pthread_cond_broadcast(&ctl_->cv); // payload space freed
      }
      if (cur.remaining > 0) return; // sender still streaming
      // Frame complete.
      if (cur.tag == tag) {
        payload = std::move(cur.partial);
        have = true;
      } else {
        pending_[{dst, src, cur.tag}].push_back(std::move(cur.partial));
      }
      cur.partial = {};
      cur.have_hdr = false;
    }
  }

  void note_handle(int rank, bool completed, double overlap_seconds) override {
    {
      Locked lk(this);
      ShmRankTraffic* t = traffic(rank);
      if (completed) {
        t->handles_completed += 1;
        t->overlap_seconds += overlap_seconds;
      } else {
        t->handles_posted += 1;
      }
    }
    Transport::note_handle(rank, completed, overlap_seconds);
  }

  /// Per-rank traffic + obs registry accounting for one completed op.
  void account(int rank, const char* op, std::size_t bytes, double waited) {
    {
      Locked lk(this);
      ShmRankTraffic* t = traffic(rank);
      const int i = op_index(op);
      t->calls[i] += 1;
      t->bytes[i] += bytes;
      t->wait_seconds += waited;
    }
    account_obs(op, bytes);
    if (waited > 0.0) account_wait_obs(waited);
  }

  struct RingCursor {
    bool have_hdr = false;
    int tag = 0;
    std::uint64_t remaining = 0;
    std::vector<std::byte> partial;
  };
  struct PendKey {
    int dst, src, tag;
    bool operator<(const PendKey& o) const {
      if (dst != o.dst) return dst < o.dst;
      if (src != o.src) return src < o.src;
      return tag < o.tag;
    }
  };

  const int nranks_;
  std::size_t off_chan_ = 0, off_rings_ = 0, off_traffic_ = 0, off_obs_ = 0;
  std::size_t size_ = 0;
  unsigned char* base_ = nullptr;
  ShmControl* ctl_ = nullptr;

  // Process-local p2p receive state (each process hosts exactly one rank):
  // partially-streamed frames per source ring and the drained-but-
  // unmatched frame queue that restores out-of-order tag matching.
  std::map<std::pair<int, int>, RingCursor> cursors_; // keyed (dst, src)
  std::map<PendKey, std::vector<std::vector<std::byte>>> pending_;
  // Retired frame buffers recycled into drain cursors (capacity kept).
  std::vector<std::vector<std::byte>> spare_;
};

} // namespace

RunStats run_shm(int nranks, const std::function<void(Comm&)>& body) {
  auto state = std::make_shared<ShmTransport>(nranks);

  // Flush before forking: buffered stdio would otherwise be duplicated
  // into every child and flushed once per process.
  std::fflush(stdout);
  std::fflush(stderr);

  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(nranks > 0 ? nranks - 1 : 0));
  for (int r = 1; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      state->abort("fork failed");
      for (pid_t p : pids) ::waitpid(p, nullptr, 0);
      throw std::runtime_error("SimComm: fork failed");
    }
    if (pid == 0) {
      // ---- child: host rank r ----
      // The parent's pool workers did not survive the fork; abandon the
      // ghost pool before anything can touch a parallel kernel.
      ThreadPool::reset_after_fork();
      const ObsBaseline base = capture_obs_baseline();
      int status = 0;
      try {
        Comm comm(state, r);
        body(comm);
      } catch (...) {
        std::string what;
        const ErrTag tag = classify_current(what);
        state->claim_error(r, tag, what);
        status = 1;
      }
      try {
        state->export_obs(r, base);
      } catch (...) {
      }
      std::fflush(nullptr);
      std::_Exit(status); // no destructors: shared state belongs to parent
    }
    pids.push_back(pid);
  }

  // Watchdog: reap children as they exit (any order — a crashed child
  // must poison the group even while its siblings still run) and convert
  // abnormal terminations into an error claim so nobody waits forever.
  std::thread watchdog([&] {
    std::size_t remaining = pids.size();
    while (remaining > 0) {
      int st = 0;
      const pid_t p = ::waitpid(-1, &st, 0);
      if (p < 0) {
        if (errno == EINTR) continue;
        break; // ECHILD: nothing left to reap
      }
      int rank = -1;
      for (std::size_t i = 0; i < pids.size(); ++i)
        if (pids[i] == p) rank = static_cast<int>(i) + 1;
      if (rank < 0) continue; // not ours (host process forked elsewhere)
      --remaining;
      if (WIFSIGNALED(st)) {
        state->claim_error(rank, ErrTag::kRuntimeError,
                           "killed by signal " + std::to_string(WTERMSIG(st)));
      }
    }
  });

  // ---- parent: host rank 0, so rank-0 results and side effects land in
  // the calling process exactly as with the threaded backend ----
  std::exception_ptr native;
  bool native_won = false;
  try {
    Comm comm(state, 0);
    body(comm);
  } catch (...) {
    native = std::current_exception();
    std::string what;
    const ErrTag tag = classify_current(what);
    // A no-op when another rank already claimed (this exception is then
    // the induced "SimComm aborted" unwind, and the root cause wins).
    native_won = state->claim_error(0, tag, what);
  }

  watchdog.join();
  state->merge_obs();

  if (state->has_error()) {
    int erank = -1;
    ErrTag tag = ErrTag::kNone;
    std::string what;
    state->fetch_error(erank, tag, what);
    // The parent's own exception crosses no process boundary: rethrow it
    // natively, preserving the exact dynamic type.
    if (erank == 0 && native_won && native) std::rethrow_exception(native);
    if (tag == ErrTag::kUnknown) {
      // A non-std exception type cannot be reconstructed from a tag.
      // Replay the body on the in-process backend to reproduce the
      // original throw natively (the error is deterministic for every
      // caller in this codebase; if the replay disagrees, fall through
      // to the generic message).
      run(nranks, TransportKind::kInproc, body);
      throw std::runtime_error("SimComm aborted: rank " +
                               std::to_string(erank) + " threw: " + what);
    }
    rethrow_tag(tag, what);
  }
  return state->run_stats();
}

} // namespace detail
} // namespace mlmd::par
