"""One workload process: set-up, closed-loop timing, output checks.

Started by run.py, once per set-up sample and once to measure. It prints a
single JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path


# Nominal speed-sample value, in seconds: item times are reported at the
# speed at which a sample reads this (see Speed).
REFERENCE_S = 0.0064
# a reference time is the best of a few calls, which drops the interrupts
# that hit single calls but not a slow phase, which hits all of them
REFERENCE_REPEAT = 2
SPEED_INTERVAL_S = 0.5
SPEED_WINDOW_S = 1.5


def _reference_dicts():
    """Builds megabytes of nested tuples, dictionaries and strings."""
    d = {}
    for i in range(20000):
        d[((i, (i >> 3, ())), (i & 255,))] = "(" + str(i) + ",*)"
    return sum(len(v) + len(k[0]) for k, v in d.items())


def _reference_small():
    """The same kinds of objects in a working set of a few kilobytes."""
    d = {}
    t = ()
    for i in range(6000):
        t = (t, i) if i % 7 else ()
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + len(str(i))
    return len(d), t


def _best(fn) -> float:
    best = None
    for _ in range(REFERENCE_REPEAT):
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


class Speed:
    """The host's speed over time, from timed reference loops.

    On a shared host (measured on 2 vCPUs), speed drifts in phases that
    last from seconds to minutes, by up to a factor of two, and neither
    medians nor CPU time remove that. The two reference loops share no
    code with splitmerge and run with the cyclic garbage collector off, so
    that no GC policy the program sets (thresholds, gc.disable, gc.freeze)
    changes their cost; with it on, collections took a fifth of it.
    A speed sample is the geometric mean of their best times: code with a
    large working set slows down more than the small loop, and code with a
    small one less than the large loop. Each item's time is scaled by
    REFERENCE_S over the median sample within SPEED_WINDOW_S of the item.
    Over 150 s of interleaved runs, this cut the spread of 5-call medians
    from 15-20% to 4-7% on every workload's typical item.
    """

    def __init__(self):
        self.samples = []
        self.last = -1.0

    def sample(self, force=False):
        now = time.perf_counter()
        if not force and now - self.last < SPEED_INTERVAL_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            value = (_best(_reference_dicts)
                     * _best(_reference_small)) ** 0.5
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter()
        self.samples.append(((now + end) / 2, value))
        self.last = end

    def scale(self, start, end):
        """REFERENCE_S over the median sample within SPEED_WINDOW_S of
        [start, end], or over the median of the three nearest samples."""
        near = [d for t, d in self.samples
                if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        if len(near) < 3:
            near = [d for _, d in sorted(
                self.samples,
                key=lambda s: max(start - s[0], s[0] - end, 0.0))[:3]]
        return REFERENCE_S / statistics.median(near)


def _loop(items, seconds, digest, reference=None, whole_passes=False,
          on_pass=None):
    """Call the items in order, one at a time, pass after pass; each
    call's time is scaled to the reference speed.

    Stops at the first item boundary after `seconds` once a pass is
    complete, or, with whole_passes, only at a pass boundary. Without a
    reference, the first pass's outputs are kept and their digests become
    the reference that every later output must match. Returns per-item
    samples at reference speed, the raw samples, the kept outputs, the
    reference digests and the failures as (item index, message) pairs, one
    per failed call.
    """
    spans = [[] for _ in items]
    outputs = None
    failures = []
    speed = Speed()
    deadline = time.monotonic() + seconds
    passes = 0

    def result():
        speed.sample(force=True)
        samples = [[(end - start) * speed.scale(start, end)
                    for start, end in calls] for calls in spans]
        raw = [[end - start for start, end in calls] for calls in spans]
        return samples, raw, outputs, reference, failures

    while True:
        kept = []
        for k, (item_id, fn) in enumerate(items):
            speed.sample()
            start = time.perf_counter()
            try:
                out = fn()
            except Exception:
                out = None
                failures.append((k, f"{item_id} raised\n"
                                    + traceback.format_exc()))
            end = time.perf_counter()
            spans[k].append((start, end))
            if end - start >= SPEED_INTERVAL_S:
                speed.sample(force=True)
            if reference is None:
                kept.append(out)
            elif out is not None and digest(out) != reference[k]:
                failures.append((k, f"{item_id} output changed between "
                                    "passes"))
            if (passes and not whole_passes
                    and time.monotonic() >= deadline):
                return result()
        if reference is None:
            outputs = kept
            reference = [None if out is None else digest(out)
                         for out in outputs]
        passes += 1
        if on_pass is not None:
            on_pass()
        if time.monotonic() >= deadline:
            return result()


def _timings(samples) -> dict:
    """pass_s is the sum of the items' median times; the item percentiles
    are taken over the items' median times."""
    medians = [statistics.median(s) for s in samples]
    if len(medians) >= 2:
        p99 = statistics.quantiles(medians, n=100, method="inclusive")[98]
    else:
        p99 = medians[0]
    return {
        "pass_s": sum(medians),
        "item_p50_ms": statistics.median(medians) * 1e3,
        "item_p99_ms": p99 * 1e3,
        "calls": sum(len(s) for s in samples),
        "passes": min(len(s) for s in samples),
    }


def _traced_run(sm, workload, items, seconds, reference, root, args):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer, sm)
    per_pass = []
    summaries = []
    claims = list(sm.verify.RUNNERS)

    def close_pass():
        per_pass.append(layers.metrics(tracer, claims))
        summaries.append(tracer.summary())
        tracer.reset()

    def tagged(item_id, fn):
        # a root span per item call; all spans below it carry its id
        wrapped = tracer.wrap("bench.item", fn)

        def run():
            tracer.item = item_id
            return wrapped()
        return run

    items = [(item_id, tagged(item_id, fn)) for item_id, fn in items]
    tracer.enabled = True
    try:
        samples, _, _, _, failures = _loop(
            items, seconds, workload.digest, reference=reference,
            whole_passes=True, on_pass=close_pass)
    finally:
        tracer.uninstall()
    values = {}
    for name, value in per_pass[0].items():
        if isinstance(value, int):
            values[name] = value
            if any(p[name] != value for p in per_pass):
                print(f"perfbench: count {name} differs between passes",
                      file=sys.stderr)
        else:
            values[name] = statistics.median(p[name] for p in per_pass)
    trace_file = (root / ".bench_build" / "perfbench"
                  / f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write(trace_file, summaries)
    return samples, failures, values, {
        "traced_passes": len(per_pass),
        "trace_file": str(trace_file.relative_to(root))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import splitmerge as sm
    if Path(sm.__file__).resolve().parent != src / "splitmerge":
        print(f"perfbench: imported splitmerge from {sm.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](sm, args.seed)
    workload.warm_up()
    ready = time.monotonic()
    # the host's speed right after set-up, to scale the set-up time
    speed = Speed()
    for _ in range(2):
        speed.sample(force=True)
    setup_scale = REFERENCE_S / statistics.median(
        d for _, d in speed.samples)
    if args.setup_only:
        print(json.dumps({"ready": ready, "scale": setup_scale}))
        return 0

    items = workload.items()
    # a traced run spends half its time untraced, to measure the overhead
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    samples, raw, outputs, reference, failures = _loop(
        items, untraced_s, workload.digest)
    result = {"ready": ready, "scale": setup_scale, "items": len(items),
              "inputs": hashlib.sha1(workload.inputs().encode()).hexdigest(),
              "raw_pass_s": _timings(raw)["pass_s"], **_timings(samples),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    runs = Counter({k: len(s) for k, s in enumerate(samples)})

    if args.trace:
        traced_samples, traced_failures, values, info = _traced_run(
            sm, workload, items, args.seconds - untraced_s, reference,
            root, args)
        failures += traced_failures
        runs.update({k: len(s) for k, s in enumerate(traced_samples)})
        traced_pass_s = _timings(traced_samples)["pass_s"]
        values["bench.traced_pass_s"] = traced_pass_s
        values["bench.trace_overhead"] = traced_pass_s / result["pass_s"] - 1
        result["layers"] = values
        result.update(info)

    check_failures = []
    if all(out is not None for out in outputs):
        check_failures = workload.check(outputs)
        result["units_per_pass"] = workload.units_per_pass(outputs)
    # every call of an item whose first output is wrong returned that output
    wrong = {k for k, _ in check_failures}
    bad_calls = Counter(k for k, _ in failures if k not in wrong)
    result["unit"] = workload.unit
    result["attempted"] = sum(runs.values())
    result["failed"] = (sum(bad_calls.values())
                        + sum(runs[k] for k in wrong))
    result["failures"] = [m for _, m in sorted(failures + check_failures)][:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
