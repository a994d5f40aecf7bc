#!/bin/sh
# Thread-count identity of mlmd_run end to end: the Fig. 3 pipeline and
# the atomistic NNQMD run must print byte-identical stdout at --threads=1
# and --threads=4. Usage:
#   mlmd_run_threads_identity_test.sh <mlmd_run>
set -eu

RUN=${1:?usage: mlmd_run_threads_identity_test.sh <path-to-mlmd_run>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mlmd_run_ti.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 1' INT TERM HUP

for t in 1 4; do
  "$RUN" pipeline --lattice=32 --xs_steps=200 --threads=$t > "$WORK/pipeline.t$t"
  "$RUN" nnqmd --epochs=30 --md_steps=100 --threads=$t > "$WORK/nnqmd.t$t"
done

for cmd in pipeline nnqmd; do
  if ! cmp -s "$WORK/$cmd.t1" "$WORK/$cmd.t4"; then
    echo "FAIL: mlmd_run $cmd stdout differs between --threads=1 and --threads=4" >&2
    diff "$WORK/$cmd.t1" "$WORK/$cmd.t4" >&2 || true
    exit 1
  fi
done

echo "PASS: mlmd_run pipeline and nnqmd stdout identical at --threads=1 and --threads=4"
