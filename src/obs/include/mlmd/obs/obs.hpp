#pragma once
// Umbrella header for mlmd::obs — span tracing (trace.hpp), metrics
// (metrics.hpp), and the small front-door helpers the apps and benches
// share to wire up `--trace=<path>` / MLMD_TRACE.

#include <string>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/obs/trace.hpp"

namespace mlmd::obs {

/// Resolve the trace output path: `cli_path` (the value of a --trace=
/// flag; pass "" when absent) wins over the MLMD_TRACE environment
/// variable. If a path is configured the tracer is enabled. Returns the
/// resolved path; "" means tracing stays off.
std::string init_tracing(const std::string& cli_path);

/// Flush recorded spans to `path` as Chrome trace JSON and report the
/// span/drop counts on stderr. No-op (returns true) when `path` is empty.
bool finish_tracing(const std::string& path);

} // namespace mlmd::obs
