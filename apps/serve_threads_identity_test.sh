#!/bin/sh
# Thread-count identity of the serving daemon end to end: the same load
# at --threads=1 and --threads=4 must write byte-identical result files.
# At lattice 32 every fused force evaluation splits into several pool
# chunks, so this covers the chunked Eq. (4) inference, the lattice step
# and the charge kernels together. Usage:
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

n=0
for ref in "$WORK"/t1/result-*.txt; do
  got="$WORK/t4/$(basename "$ref")"
  if ! cmp -s "$ref" "$got"; then
    echo "FAIL: $(basename "$ref") differs between --threads=1 and --threads=4" >&2
    diff "$ref" "$got" >&2 || true
    exit 1
  fi
  n=$((n + 1))
done
if [ "$n" -ne 8 ] || [ "$(ls "$WORK"/t4/result-*.txt | wc -l)" -ne 8 ]; then
  echo "FAIL: expected 8 result files per run, got $n" >&2
  exit 1
fi

echo "PASS: $n result files byte-identical at --threads=1 and --threads=4"
