#pragma once
// Minimal perf-record emitter shared by the Table benches (--json=<path>).
//
// Schema v3 (see DESIGN.md Sec. 9): a top-level object
//
//   {"schema_version": 3, "machine": {...}, "records": [ {...}, ... ],
//    "registry": {...}}
//
// with one record per measured kernel carrying
//   kernel       measured kernel/model name
//   gflops       sustained throughput of the best repetition
//   bytes_alloc  Workspace bytes reserved during the final repetition —
//                the zero-allocation contract makes this 0 after warm-up
//   seconds      best-repetition wall time
//   comm_bytes   SimComm payload bytes the measurement put on the wire
//                (one rank's account in a mini-run, each payload counted
//                once, on the sender; 0 for single-rank kernels)
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
// "machine": {"simd": "<scalar|avx2|avx512>", "cpu_flags": ["avx2", ...]}
// records the resolved mlmd::simd dispatch target (DESIGN.md Sec. 12)
// and the cpuid feature flags of the measuring host, so a recorded number
// can always be traced back to the micro-kernel ISA that produced it.
//
// "registry" is obs::Registry::report_json(): every counter, gauge and
// histogram of the process (ft.*, serve.*, simcomm.*, ...), histograms
// with their p50/p95/p99. trace_check checks how those instruments relate
// (its invariant table), and that the records' handles_posted and
// comm_bytes sum to the registry's simcomm.handles.posted and
// simcomm.*.bytes without simcomm.recv.bytes, so a bench publishes a
// number by updating an instrument, not by adding a field here.

#include <cstdio>
#include <string>
#include <vector>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/simcomm.hpp"
#include "mlmd/simd/simd.hpp"

namespace mlmd::benchjson {

inline constexpr int kSchemaVersion = 3;

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

/// One record per SimComm rank of a measured mini-run, named
/// "<prefix>.rank<r>", each also printed as a "#   rank r: ..." line.
/// Calls and comm_bytes cover every op but "recv": a point-to-point
/// payload counts once, as its sender's "send". Summed over the records,
/// comm_bytes equals the registry's simcomm.*.bytes less
/// simcomm.recv.bytes (trace_check checks this in CI).
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
      if (op == "recv") continue;
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

inline bool write(const std::string& path, const std::vector<Record>& recs) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return false;
  std::fprintf(fp, "{\"schema_version\": %d, ", kSchemaVersion);
  std::fprintf(fp, "\"machine\": {\"simd\": \"%s\", \"cpu_flags\": [",
               simd::target_name(simd::active_target()));
  const auto flags = simd::caps_strings();
  for (std::size_t i = 0; i < flags.size(); ++i)
    std::fprintf(fp, "%s\"%s\"", i ? ", " : "", flags[i].c_str());
  std::fprintf(fp, "]}, ");
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
  std::fprintf(fp, "],\n\"registry\": %s}\n",
               obs::Registry::global().report_json().c_str());
  std::fclose(fp);
  return true;
}

} // namespace mlmd::benchjson
