#!/usr/bin/env python3
"""Build and run the MLMD end-to-end benchmark (see RATIONALE.md).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--open-rate R] [--corrupt 1]

Run it from the root of a repository checkout; BENCHMARK.json holds the
exact command. The first run configures and builds the e2ebench binary
into $CARGO_TARGET_DIR (default .bench_build); once the binary exists,
later runs only let the build check that it is up to date. Build output goes to stderr. The
benchmark's stdout passes through and ends with one JSON result line,
whose metric names are checked against BENCHMARK.json.

The thread pool and OMP_NUM_THREADS are pinned to the same count,
min(4, usable cores), before the benchmark process starts: the OpenMP
runtime reads OMP_NUM_THREADS only at load time.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_THREADS = 4


def build(build_dir, jobs):
    """Configure (first run only) and build the benchmark binary."""
    binary = os.path.join(build_dir, "e2ebench")
    steps = []
    if not os.path.exists(binary):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                  "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return binary


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] != "0"
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir, threads)

    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               MLMD_NUM_THREADS=str(threads))
    child = subprocess.Popen([binary, *args],
                             env=env, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    out, _ = child.communicate()
    sys.stdout.write(out)
    sys.stdout.flush()
    if child.returncode != 0:
        return child.returncode

    want = expected_metrics(trace)
    lines = out.strip().splitlines()
    got = list(json.loads(lines[-1])["metrics"]) if lines else []
    if want is not None and got != want:
        sys.stderr.write("run.py: metrics %s do not match BENCHMARK.json %s\n"
                         % (got, want))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
