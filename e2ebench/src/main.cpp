// e2ebench entry point: parse the benchmark arguments, pin and print the
// environment, run one workload, print its metrics and checks.
//
//   OMP_NUM_THREADS=T e2ebench --workload NAME --seed N --seconds S
//            --trace 0|1 [--open-rate R] [--corrupt 1]
//
// T is both the OpenMP team and the ThreadPool size. --open-rate sets the
// serve_short_open arrival rate (default 6/s).
//
// Exit status: 0 when every output check passed, 2 when a check failed
// (the result line then says "correct": false), 1 on a usage or runtime
// error (no result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

bool parse(int argc, char** argv, e2e::Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--trace") o.trace = std::stoi(val) != 0;
    else if (key == "--open-rate") o.open_rate = std::stod(val);
    else if (key == "--corrupt") o.corrupt = std::stoi(val) != 0;
    else return false;
  }
  return argc % 2 == 1 && o.seconds > 0.0 && o.open_rate > 0.0 &&
         (o.workload == "fig3_exact" || o.workload == "serve_neural_closed" ||
          o.workload == "serve_short_open");
}

} // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  o.t_start = e2e::now_s();
  try {
    if (!parse(argc, argv, o)) {
      std::fprintf(stderr,
                   "usage: e2ebench --workload fig3_exact|serve_neural_closed|"
                   "serve_short_open --seed N --seconds S --trace 0|1 "
                   "[--open-rate R] [--corrupt 1]\n"
                   "  --open-rate: serve_short_open arrivals/s (default 6)\n");
      return 1;
    }
    o.threads = e2e::threads_from_env();
    e2e::pin_threads(o.threads);
    e2e::print_environment(o);
    e2e::Report r;
    if (o.trace)
      e2e::declare_per_layer(r);
    else
      e2e::declare_end_to_end(r);
    if (o.workload == "fig3_exact")
      e2e::run_fig3_exact(o, r);
    else
      e2e::run_serve(o, r);
    r.print();
    return r.correct() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2ebench: error: %s\n", e.what());
    return 1;
  }
}
