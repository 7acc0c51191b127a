"""splitmerge benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Workloads: claims, explore, homology,
links (see BENCHMARK.json for why each exists). With --trace 0 the last
line of standard output is a JSON object holding the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run. The lines
before it print the same numbers, and the workload's named metrics, with
units and sample counts. The exit code is 0 only when every output
passed its checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def _named(workload: str, res: dict) -> list:
    """The workload's own metric names for what pass_s and the item
    percentiles measure: (name, value, unit)."""
    rate = res.get("units_per_pass", 0) / res["pass_s"]
    return {
        "claims": [("verdict_s", res["pass_s"], "s")],
        "explore": [("explore_vps", rate, "1/s")],
        "homology": [("homology_cells_per_s", rate, "1/s")],
        "links": [("links_per_s", rate, "1/s"),
                  ("link_p50_ms", res["item_p50_ms"], "ms"),
                  ("link_p99_ms", res["item_p99_ms"], "ms")],
    }[workload]


def _worker(args, deadline, setup_only=False):
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # the hash seed follows the workload seed, so set iteration order and
    # with it every traced count repeats exactly for one seed
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    return (out["ready"] - start) * out["scale"], out


def _print_metric(name, value, unit, note):
    print(f"  {name:26s} {value:14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src" / "splitmerge"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no splitmerge sources under {src}",
              file=sys.stderr)
        return 2
    # "build": byte-compile once, so that set-up times measure warm imports
    if not compileall.compile_dir(str(src), quiet=1):
        print("perfbench: splitmerge does not compile", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # set-up samples before and after the measuring process, so that
        # their median spans the run rather than one moment of it
        extra = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [_worker(args, deadline, setup_only=True)[0]
                  for _ in range(extra)]
        setup, res = _worker(args, deadline)
        setups.append(setup)
        setups += [_worker(args, deadline, setup_only=True)[0]
                   for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError, KeyError) as exc:
        print(f"perfbench: {args.workload} did not finish: {exc}",
              file=sys.stderr)
        return 1

    for message in res["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    calls = f"n={res['calls']} calls of {res['items']} items"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: "
          f"{res['passes']} full passes of {res['items']} items, "
          f"{res.get('units_per_pass', 0)} {res['unit']} per pass; "
          "times at reference speed")
    print(f"  inputs sha1 {res['inputs']}")
    e2e = {
        "setup_s": (statistics.median(setups), f"median, n={len(setups)} "
                    "set-ups" if not args.trace else "n=1 set-up"),
        "pass_s": (res["pass_s"], "sum of item medians, " + calls),
        "item_p50_ms": (res["item_p50_ms"], "over item medians, " + calls),
        "item_p99_ms": (res["item_p99_ms"], "over item medians, " + calls),
        "peak_rss_mb": (res["peak_rss_mb"], "n=1 process"),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, (value, note) in e2e.items():
        _print_metric(name, value, units[name], note)
    for name, value, unit in _named(args.workload, res):
        _print_metric(name, value, unit, calls)
    _print_metric("pass_s_raw", res["raw_pass_s"], "s",
                  "unscaled host seconds, not compared")
    _print_metric("error_rate", res["failed"] / res["attempted"], "ratio",
                  f"{res['failed']} failed of {res['attempted']} calls")

    if args.trace:
        layer = res["layers"]
        metrics = {}
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]],
                                  "unit": m["unit"]}
            _print_metric(m["name"], layer[m["name"]], m["unit"],
                          "per pass")
        print(f"  spans and self times: {res['trace_file']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    correct = res["failed"] == 0 and "units_per_pass" in res
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
