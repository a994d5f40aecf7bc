#!/bin/sh
# Thread-count and SIMD-target identity of the serving daemon end to end:
# the same load at --threads=1 and --threads=4, and at --threads=4 under
# MLMD_SIMD=scalar, must write byte-identical result files. At lattice 32
# every fused force evaluation splits into several pool chunks, so this
# covers the chunked Eq. (4) inference (the per-target MLP kernel and its
# tanh), the lattice step and the charge kernels together. Usage:
#   serve_threads_identity_test.sh <mlmd_serve>
set -eu

SERVE=${1:?usage: serve_threads_identity_test.sh <path-to-mlmd_serve>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mlmd_serve_ti.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 1' INT TERM HUP

FLAGS="--tenants=4 --per-tenant=2 --lattice=32 --xs-steps=40 \
  --inflight=8 --verify-batching"

for t in 1 4; do
  "$SERVE" $FLAGS --threads=$t --out="$WORK/t$t" > "$WORK/t$t.log"
done
MLMD_SIMD=scalar "$SERVE" $FLAGS --threads=4 --out="$WORK/scalar" \
  > "$WORK/scalar.log"

# same_results DIR WHAT: DIR's 8 result files equal --threads=1's.
same_results() {
  n=0
  for ref in "$WORK"/t1/result-*.txt; do
    got="$1/$(basename "$ref")"
    if ! cmp -s "$ref" "$got"; then
      echo "FAIL: $(basename "$ref") differs between --threads=1 and $2" >&2
      diff "$ref" "$got" >&2 || true
      exit 1
    fi
    n=$((n + 1))
  done
  if [ "$n" -ne 8 ] || [ "$(ls "$1"/result-*.txt | wc -l)" -ne 8 ]; then
    echo "FAIL: expected 8 result files per run, got $n" >&2
    exit 1
  fi
}
same_results "$WORK/t4" "--threads=4"
same_results "$WORK/scalar" "MLMD_SIMD=scalar --threads=4"

echo "PASS: $n result files byte-identical at --threads=1, --threads=4 and MLMD_SIMD=scalar --threads=4"
