"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload: two traced runs at one seed must give identical values
for every count metric, and a run at a second seed must see different
inputs and fail no operation. Exits 1 on the first violated expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, OTHER_SEED = 1, 2
SECONDS = 2


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    inputs = [ln.split()[-1] for ln in lines if ln.strip().startswith("inputs")]
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"selftest: {workload} seed {seed} trace {trace} "
                         f"failed: exit {proc.returncode}, {lines[-1]}")
    return inputs[0], result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for workload in (w["name"] for w in bench["workloads"]):
        inputs, first = _run(workload, SEED, 1)
        _, second = _run(workload, SEED, 1)
        differ = [m for m in counts if first["metrics"][m]["value"]
                  != second["metrics"][m]["value"]]
        if differ:
            print(f"selftest: {workload}: counts differ between two traced "
                  f"runs at seed {SEED}: {differ}")
            return 1
        other_inputs, other = _run(workload, OTHER_SEED, 0)
        if other_inputs == inputs:
            print(f"selftest: {workload}: seeds {SEED} and {OTHER_SEED} "
                  "gave the same inputs")
            return 1
        print(f"selftest: {workload}: {len(counts)} counts repeat at seed "
              f"{SEED}; seed {OTHER_SEED} has other inputs and "
              f"{other['failed']} of {other['attempted']} calls failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
