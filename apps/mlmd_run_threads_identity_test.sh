#!/bin/sh
# Thread-count and SIMD-target identity of mlmd_run end to end: the Fig. 3
# pipeline and the atomistic NNQMD run must print byte-identical stdout at
# --threads=1 and --threads=4, and the pipeline must print the same bytes
# under MLMD_SIMD=scalar as under the host's default target, and so must
# nnqmd, whose AtomModel forces run the per-target MLP kernel through
# Mlp::grad_input_batch; nnqmd prints `md_digest`, a hash of every bit of
# the final positions and velocities. The pipeline
# runs at --lattice=64, so each ferro step and charge pass splits into two
# pool chunks, and its stdout carries a digest of every bit of Q(t).
# The pipeline also runs at --threads=3, where the pool's home ranges are
# uneven: at --lattice=64 one of the three participants has an empty
# range, and at --lattice=128 the 8 chunks split 2/3/3.
# Usage:
#   mlmd_run_threads_identity_test.sh <mlmd_run>
set -eu

RUN=${1:?usage: mlmd_run_threads_identity_test.sh <path-to-mlmd_run>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mlmd_run_ti.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 1' INT TERM HUP

for t in 1 4; do
  "$RUN" pipeline --lattice=64 --xs_steps=200 --threads=$t > "$WORK/pipeline.t$t"
  "$RUN" nnqmd --epochs=30 --md_steps=100 --threads=$t > "$WORK/nnqmd.t$t"
done
"$RUN" pipeline --lattice=64 --xs_steps=200 --threads=3 > "$WORK/pipeline.t3"
for t in 1 3; do
  "$RUN" pipeline --lattice=128 --xs_steps=200 --threads=$t > "$WORK/pipeline128.t$t"
done
MLMD_SIMD=scalar "$RUN" pipeline --lattice=64 --xs_steps=200 --threads=4 \
  > "$WORK/pipeline.scalar"
MLMD_SIMD=scalar "$RUN" nnqmd --epochs=30 --md_steps=100 --threads=4 \
  > "$WORK/nnqmd.scalar"

fail() {
  echo "FAIL: $1" >&2
  diff "$2" "$3" >&2 || true
  exit 1
}
for cmd in pipeline nnqmd; do
  cmp -s "$WORK/$cmd.t1" "$WORK/$cmd.t4" ||
    fail "mlmd_run $cmd stdout differs between --threads=1 and --threads=4" \
         "$WORK/$cmd.t1" "$WORK/$cmd.t4"
done
cmp -s "$WORK/pipeline.t1" "$WORK/pipeline.t3" ||
  fail "mlmd_run pipeline --lattice=64 stdout differs between --threads=1 and --threads=3" \
       "$WORK/pipeline.t1" "$WORK/pipeline.t3"
cmp -s "$WORK/pipeline128.t1" "$WORK/pipeline128.t3" ||
  fail "mlmd_run pipeline --lattice=128 stdout differs between --threads=1 and --threads=3" \
       "$WORK/pipeline128.t1" "$WORK/pipeline128.t3"
for cmd in pipeline nnqmd; do
  cmp -s "$WORK/$cmd.t4" "$WORK/$cmd.scalar" ||
    fail "mlmd_run $cmd stdout differs between the default SIMD target and MLMD_SIMD=scalar" \
         "$WORK/$cmd.t4" "$WORK/$cmd.scalar"
done
grep -q '^q_digest = [0-9a-f]\{16\}$' "$WORK/pipeline.t1" ||
  fail "mlmd_run pipeline printed no q_digest line" "$WORK/pipeline.t1" /dev/null
grep -q '^md_digest = [0-9a-f]\{16\}$' "$WORK/nnqmd.t1" ||
  fail "mlmd_run nnqmd printed no md_digest line" "$WORK/nnqmd.t1" /dev/null

echo "PASS: mlmd_run pipeline and nnqmd stdout identical at --threads=1 and --threads=4 and under MLMD_SIMD=scalar, pipeline identical at --threads=3 (lattice 64 and 128)"
