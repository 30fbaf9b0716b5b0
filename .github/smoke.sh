#!/usr/bin/env bash
# The benchmark smoke runs of CI: each workload traced once, at seed 1 for 1 s,
# its outputs and exactness digests checked against bench/reference.
# usage (from the repository root): bash .github/smoke.sh OUTDIR
set -euo pipefail
out=${1:?usage: bash .github/smoke.sh OUTDIR}

# One traced run of workload $1, its stdout in smoke-$1.out and its stderr in
# smoke-$1.err (echoed to the log). The run fails the smoke when it fails or
# prints a FLAG: line: rungs solved differ from residual checks, or a count
# differs between traced passes.
smoke() {
  local status=0
  python3 bench/run.py --workload "$1" --seed 1 --seconds 1 --trace 1 > "$out/smoke-$1.out" 2> "$out/smoke-$1.err" || status=$?
  cat "$out/smoke-$1.err" >&2
  if grep -q '^FLAG:' "$out/smoke-$1.err"; then
    echo "smoke: workload $1 printed a FLAG: line" >&2
    return 1
  fi
  return "$status"
}

# Exactness smoke: these workloads fail no operation.
for w in energy-curve validate critical-table; do
  smoke "$w"
  tail -n 1 "$out/smoke-$w.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
done

# Wavefunction smoke: outputs and digests; the README lambda = 0.3 line fails once per pass.
smoke wavefunctions
tail -n 1 "$out/smoke-wavefunctions.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["attempted"] > 0 and r["failed"] * 4 == r["attempted"]))'
