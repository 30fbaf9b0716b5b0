#!/usr/bin/env bash
# The benchmark smoke runs of CI: each workload traced once, at seed 1 for 1 s,
# its outputs and exactness digests checked against bench/reference.
# usage (from the repository root): bash .github/smoke.sh OUTDIR
set -euo pipefail
out=${1:?usage: bash .github/smoke.sh OUTDIR}

# Exactness smoke: these workloads fail no operation.
for w in energy-curve validate critical-table; do
  python3 bench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 > "$out/smoke-$w.out"
  tail -n 1 "$out/smoke-$w.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
done

# Wavefunction smoke: outputs and digests; the README lambda = 0.3 line fails once per pass.
python3 bench/run.py --workload wavefunctions --seed 1 --seconds 1 --trace 1 > "$out/smoke-wavefunctions.out"
tail -n 1 "$out/smoke-wavefunctions.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and r["attempted"] > 0 and r["failed"] * 4 == r["attempted"]))'
