#pragma once
// Umbrella header for mlmd::obs — span tracing (trace.hpp), metrics
// (metrics.hpp), and the small front-door helpers the apps and benches
// share to wire up `--trace=<path>`.

#include <string>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::obs {

/// Enable the tracer when `path` (the value of a --trace= flag; pass ""
/// when absent) is set, and return `path` for finish_tracing. "" leaves
/// tracing off.
std::string init_tracing(const std::string& path);

/// Flush recorded spans to `path` as Chrome trace JSON and report the
/// span/drop counts on stderr. No-op (returns true) when `path` is empty.
bool finish_tracing(const std::string& path);

} // namespace mlmd::obs
