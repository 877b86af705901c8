#!/usr/bin/env bash
# Short correctness pass over the repository benchmark (perfbench/): runs
# both workloads, untraced and traced, for 2 s each and fails unless every
# result line reports "correct": true and "failed": 0. Timings are not
# checked; a shared CI runner is too noisy for that.
#
#   scripts/perfbench_smoke.sh
#
# The first run builds the benchmark program into .bench_build/ (a few
# minutes); each run after that takes about 4-7 s.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

for workload in dense_churn serve_open_loop; do
  for trace in 0 1; do
    echo "== perfbench $workload --trace $trace"
    result="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 2 --trace "$trace" | tail -n 1)"
    RESULT="$result" python3 - <<'EOF'
import json
import os
import sys

line = os.environ["RESULT"]
try:
    result = json.loads(line)
except json.JSONDecodeError:
    sys.exit(f"no result line: {line!r}")
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"benchmark run failed its checks: correct={result.get('correct')}"
             f" failed={result.get('failed')}")
print(f"ok: {result['attempted']} operations checked")
EOF
  done
done
