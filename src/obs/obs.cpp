#include "mlmd/obs/obs.hpp"

#include <cstdio>

namespace mlmd::obs {

std::string init_tracing(const std::string& path) {
  if (!path.empty()) Tracer::enable(true);
  return path;
}

bool finish_tracing(const std::string& path) {
  if (path.empty()) return true;
  Tracer::enable(false);
  const bool ok = Tracer::write_chrome_trace(path);
  if (ok) {
    std::fprintf(stderr, "[obs] wrote %llu spans (%llu dropped) to %s\n",
                 static_cast<unsigned long long>(Tracer::span_count()),
                 static_cast<unsigned long long>(Tracer::dropped()),
                 path.c_str());
  } else {
    std::fprintf(stderr, "[obs] cannot write trace to %s\n", path.c_str());
  }
  return ok;
}

} // namespace mlmd::obs
