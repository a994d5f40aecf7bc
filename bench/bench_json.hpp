#pragma once
// Minimal perf-record emitter shared by the Table benches (--json=<path>).
//
// Schema v2 (see DESIGN.md Sec. 9): a top-level object
//
//   {"schema_version": 2, "records": [ {...}, ... ]}
//
// with one record per measured kernel carrying
//   kernel       measured kernel/model name
//   gflops       sustained throughput of the best repetition
//   bytes_alloc  Workspace bytes reserved during the final repetition —
//                the zero-allocation contract makes this 0 after warm-up
//   seconds      best-repetition wall time
//   comm_bytes   SimComm payload bytes the measurement moved (obs
//                registry delta; 0 for single-rank kernels)
//   comm_seconds SimComm blocked-wait seconds over the measurement
//   comm_overlap_seconds
//                communication hidden behind compute: summed post->wait
//                spans of the nonblocking handles
//   handles_posted / handles_completed
//                nonblocking CommHandles created / waited during the
//                measurement; equal counts are the handle-leak invariant
//                trace_check enforces
//   span_count   tracer spans recorded while measuring (0 when tracing
//                is disabled)
// The comm_* keys map onto the mlmd::perf machine-model inputs: the
// measured bytes play the role of the model's per-step communication
// volume, the wait seconds its latency/bandwidth term, and the overlap
// seconds the fraction of it hidden by interior compute.
//
// When the measurement ran over a SimComm transport the object carries
// an optional top-level "transport" string ("inproc" or "shm", DESIGN.md
// Sec. 11) identifying the backend, so scaling points measured over real
// process boundaries are distinguishable from threaded ones.
//
// Every file additionally carries an optional "machine" block
//
//   "machine": {"simd": "<scalar|avx2|avx512>", "cpu_flags": ["avx2", ...]}
//
// recording the resolved mlmd::simd dispatch target (DESIGN.md Sec. 12)
// and the cpuid feature flags of the measuring host, so a recorded number
// can always be traced back to the micro-kernel ISA that produced it.
//
// When the measured run exercised the fault-tolerance layer (DESIGN.md
// Sec. 10) the object additionally carries an optional "ft" block
//
//   "ft": {"faults_injected": N, "faults_detected": N,
//          "faults_recovered": N, "checkpoint_writes": N,
//          "checkpoint_bytes": N, "checkpoint_seconds": S}
//
// sourced from the mlmd::obs registry; it is omitted entirely on
// zero-fault runs so existing schema-v2 consumers are unaffected.
//
// Serving-load measurements (bench_serve_load, DESIGN.md Sec. 14) add an
// optional "serve" block
//
//   "serve": {"mode": "closed", "tenants": N, "sessions": N,
//             "offered_rps": R, "sustained_rps": R,
//             "sustained_rps_batch1": R, "batch_speedup": X,
//             "latency_p50_s": S, "latency_p95_s": S, "latency_p99_s": S,
//             "batch_occupancy_mean": X, "completed": N, "rejected": N}
//
// recording offered vs. sustained scenario throughput, client-observed
// latency percentiles, and the cross-request batching speedup (sustained
// throughput vs. the same load served with batch size 1). Omitted unless
// the bench actually served traffic.
//
// Runs that exercised the liveness layer (DESIGN.md Sec. 15) add an
// optional "liveness" block
//
//   "liveness": {"deadline_hits": N, "sheds": N, "stall_detections": N,
//                "drained": N, "drain_seconds": S}
//
// sourced from the serve.deadline.hits / serve.shed /
// simcomm.stalls.detected / serve.drained / serve.drain.seconds
// instruments; omitted entirely when no deadline fired, nothing was
// shed, no stall was detected and no drain ran, so plain-throughput
// files are byte-stable against pre-liveness consumers.

#include <cstdio>
#include <string>
#include <vector>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/transport.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::benchjson {

inline constexpr int kSchemaVersion = 2;

struct Record {
  std::string kernel;
  double gflops = 0.0;
  unsigned long long bytes_alloc = 0;
  double seconds = 0.0;
  unsigned long long comm_bytes = 0;
  double comm_seconds = 0.0;
  double comm_overlap_seconds = 0.0;
  unsigned long long handles_posted = 0;
  unsigned long long handles_completed = 0;
  unsigned long long span_count = 0;
};

/// Fault-tolerance totals for the optional "ft" block.
struct FtStats {
  unsigned long long faults_injected = 0;
  unsigned long long faults_detected = 0;
  unsigned long long faults_recovered = 0;
  unsigned long long checkpoint_writes = 0;
  unsigned long long checkpoint_bytes = 0;
  double checkpoint_seconds = 0.0;

  bool any() const {
    return faults_injected || faults_detected || faults_recovered ||
           checkpoint_writes || checkpoint_bytes || checkpoint_seconds > 0.0;
  }
};

/// Serving-load totals for the optional "serve" block.
struct ServeStats {
  std::string mode = "closed"; ///< "closed" | "open"
  unsigned long long tenants = 0;
  unsigned long long sessions = 0;
  double offered_rps = 0.0;
  double sustained_rps = 0.0;
  double sustained_rps_batch1 = 0.0;
  double batch_speedup = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double batch_occupancy_mean = 0.0;
  unsigned long long completed = 0;
  unsigned long long rejected = 0;

  bool any() const { return sessions != 0; }
};

/// Liveness totals for the optional "liveness" block (DESIGN.md Sec. 15).
struct LivenessStats {
  unsigned long long deadline_hits = 0;
  unsigned long long sheds = 0;
  unsigned long long stall_detections = 0;
  unsigned long long drained = 0;
  double drain_seconds = 0.0;

  bool any() const {
    return deadline_hits || sheds || stall_detections || drained ||
           drain_seconds > 0.0;
  }
};

/// One record per SimComm rank of a measured mini-run, named
/// "<prefix>.rank<r>", each also printed as a "#   rank r: ..." line.
/// comm_bytes is the rank's exact contributed payload, which must match
/// bit-for-bit between the inproc and shm transports for the same
/// configuration (trace_check --compare-comm enforces this in CI).
inline std::vector<Record> rank_records(
    const std::string& prefix, double seconds,
    const std::vector<par::RankTraffic>& ranks) {
  std::vector<Record> recs;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const par::RankTraffic& rt = ranks[r];
    Record rec;
    rec.kernel = prefix + ".rank" + std::to_string(r);
    rec.seconds = seconds;
    unsigned long long calls = 0;
    for (const auto& [op, st] : rt.ops) {
      calls += st.calls;
      rec.comm_bytes += st.bytes;
    }
    rec.comm_seconds = rt.wait_seconds;
    rec.comm_overlap_seconds = rt.overlap_seconds;
    rec.handles_posted = rt.handles_posted;
    rec.handles_completed = rt.handles_completed;
    std::printf("#   rank %zu: %llu comm calls, %llu bytes, %.3e s waiting, "
                "%.3e s overlapped (%llu/%llu handles)\n",
                r, calls, rec.comm_bytes, rec.comm_seconds,
                rec.comm_overlap_seconds, rec.handles_completed,
                rec.handles_posted);
    recs.push_back(rec);
  }
  return recs;
}

/// Snapshot the process-global ft.* instruments. counter()/histogram()
/// get-or-register, so this is safe even when the ft layer never ran.
inline FtStats ft_stats_from_registry() {
  auto& reg = obs::Registry::global();
  FtStats s;
  s.faults_injected = reg.counter("ft.faults.injected").value();
  s.faults_detected = reg.counter("ft.faults.detected").value();
  s.faults_recovered = reg.counter("ft.faults.recovered").value();
  s.checkpoint_writes = reg.counter("ft.checkpoint.writes").value();
  s.checkpoint_bytes = reg.counter("ft.checkpoint.bytes").value();
  s.checkpoint_seconds = reg.histogram("ft.checkpoint.seconds").sum();
  return s;
}

/// Snapshot the process-global liveness instruments (DESIGN.md Sec. 15).
/// Like ft_stats_from_registry, get-or-register makes this safe when the
/// serve/transport liveness machinery never fired.
inline LivenessStats liveness_stats_from_registry() {
  auto& reg = obs::Registry::global();
  LivenessStats s;
  s.deadline_hits = reg.counter("serve.deadline.hits").value();
  s.sheds = reg.counter("serve.shed").value();
  s.stall_detections = reg.counter("simcomm.stalls.detected").value();
  s.drained = reg.counter("serve.drained").value();
  s.drain_seconds = reg.histogram("serve.drain.seconds").sum();
  return s;
}

inline bool write(const std::string& path, const std::vector<Record>& recs,
                  const FtStats* ft = nullptr,
                  const std::string& transport = "",
                  const ServeStats* serve = nullptr,
                  const LivenessStats* liveness = nullptr) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  std::fprintf(fp, "{\"schema_version\": %d, ", kSchemaVersion);
  std::fprintf(fp, "\"machine\": {\"simd\": \"%s\", \"cpu_flags\": [",
               simd::target_name(simd::active_target()));
  const auto flags = simd::caps_strings();
  for (std::size_t i = 0; i < flags.size(); ++i)
    std::fprintf(fp, "%s\"%s\"", i ? ", " : "", flags[i].c_str());
  std::fprintf(fp, "]}, ");
  if (!transport.empty())
    std::fprintf(fp, "\"transport\": \"%s\", ", transport.c_str());
  std::fprintf(fp, "\"records\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    std::fprintf(
        fp,
        "  {\"kernel\": \"%s\", \"gflops\": %.6g, \"bytes_alloc\": %llu, "
        "\"seconds\": %.6g, \"comm_bytes\": %llu, \"comm_seconds\": %.6g, "
        "\"comm_overlap_seconds\": %.6g, \"handles_posted\": %llu, "
        "\"handles_completed\": %llu, \"span_count\": %llu}%s\n",
        r.kernel.c_str(), r.gflops, r.bytes_alloc, r.seconds, r.comm_bytes,
        r.comm_seconds, r.comm_overlap_seconds, r.handles_posted,
        r.handles_completed, r.span_count, i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(fp, "]");
  if (ft && ft->any()) {
    std::fprintf(fp,
                 ",\n\"ft\": {\"faults_injected\": %llu, "
                 "\"faults_detected\": %llu, \"faults_recovered\": %llu, "
                 "\"checkpoint_writes\": %llu, \"checkpoint_bytes\": %llu, "
                 "\"checkpoint_seconds\": %.6g}",
                 ft->faults_injected, ft->faults_detected, ft->faults_recovered,
                 ft->checkpoint_writes, ft->checkpoint_bytes,
                 ft->checkpoint_seconds);
  }
  if (serve && serve->any()) {
    std::fprintf(
        fp,
        ",\n\"serve\": {\"mode\": \"%s\", \"tenants\": %llu, "
        "\"sessions\": %llu, \"offered_rps\": %.6g, "
        "\"sustained_rps\": %.6g, \"sustained_rps_batch1\": %.6g, "
        "\"batch_speedup\": %.6g, \"latency_p50_s\": %.6g, "
        "\"latency_p95_s\": %.6g, \"latency_p99_s\": %.6g, "
        "\"batch_occupancy_mean\": %.6g, \"completed\": %llu, "
        "\"rejected\": %llu}",
        serve->mode.c_str(), serve->tenants, serve->sessions,
        serve->offered_rps, serve->sustained_rps, serve->sustained_rps_batch1,
        serve->batch_speedup, serve->latency_p50_s, serve->latency_p95_s,
        serve->latency_p99_s, serve->batch_occupancy_mean, serve->completed,
        serve->rejected);
  }
  if (liveness && liveness->any()) {
    std::fprintf(fp,
                 ",\n\"liveness\": {\"deadline_hits\": %llu, \"sheds\": %llu, "
                 "\"stall_detections\": %llu, \"drained\": %llu, "
                 "\"drain_seconds\": %.6g}",
                 liveness->deadline_hits, liveness->sheds,
                 liveness->stall_detections, liveness->drained,
                 liveness->drain_seconds);
  }
  std::fprintf(fp, "}\n");
  std::fclose(fp);
  return true;
}

} // namespace mlmd::benchjson
