#!/bin/sh
# The fault examples mlmd_run advertises must fire. The spec quoted after
# "e.g." in the usage text, run with --guard=abort, must abort stage 3 at
# its step; the README's rollback spec must recover once; a fault that
# fires three times must use up the three rollbacks a run may make, and a
# fourth must end it; and a NaN in the stage-2 DC-MESH probe must abort
# under the guard. Usage:
#   mlmd_run_fault_examples_test.sh <mlmd_run>
set -eu

RUN=${1:?usage: mlmd_run_fault_examples_test.sh <path-to-mlmd_run>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/mlmd_run_fe.XXXXXX")
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT
trap 'cleanup; trap - EXIT; exit 1' INT TERM HUP

# expect <exit status> <text> <pipeline flags...>
expect() {
  want=$1
  text=$2
  shift 2
  rc=0
  "$RUN" pipeline --lattice=32 --xs_steps=200 "$@" > "$WORK/out" 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ] || ! grep -q -- "$text" "$WORK/out"; then
    echo "FAIL: mlmd_run pipeline $* exited $rc (want $want) and must print '$text':" >&2
    cat "$WORK/out" >&2
    exit 1
  fi
  echo "ok: $* -> exit $rc, '$text'"
}

# No arguments prints the usage text (and exits 1). The quoted spec may
# wrap across lines; a spec holds no blanks, so they are dropped.
spec=$("$RUN" 2>/dev/null | tr -d '\n' |
       sed -n "s/.*e\.g\. *'\([^']*\)'.*/\1/p" | tr -d ' ')
if [ -z "$spec" ]; then
  echo "FAIL: no quoted fault spec after 'e.g.' in mlmd_run's usage text" >&2
  exit 1
fi

expect 3 "step 25" --faults="$spec" --guard=abort
expect 0 "rollbacks=1" --faults="inf_field@step=5" --guard=rollback
expect 0 "rollbacks=3" --faults="inf_field@step=5,count=3" --guard=rollback
expect 3 "rollback exhausted at step 5" --faults="inf_field@step=5,count=4" --guard=rollback
expect 3 "stage 2" --faults="nan_force@step=1" --guard=abort

echo "PASS: every advertised fault example fires"
