#!/usr/bin/env python3
"""Performance regression gate over the committed BENCH_*.json baselines.

The CI pipeline regenerates BENCH_check.json / BENCH_incr.json /
BENCH_serve.json / BENCH_plan.json / BENCH_shard.json in the working
tree (scripts/ci.sh), which means the files on disk are *this run's*
numbers. The honest baseline is whatever the repository last committed,
so this gate reads the old numbers out of git
(`git show <ref>:BENCH_x.json`, default ref HEAD) and compares:

    check  -> fastest cold wall_ms across the thread sweep
    incr   -> incr_wall_ms (the session replay)
    serve  -> p99_us (untraced request latency)
    plan   -> plan_wall_ms (rollout synthesis over all campaigns)
    shard  -> shard_wall_ms (the 4-shard critical path: slowest slice)

A metric regresses when it is more than 25% slower than the baseline
(and slower by more than a small absolute epsilon, so microsecond jitter
on a near-zero metric cannot fail a build). Tracing overhead
(p99_traced_us vs p99_us) is reported informationally against a 5%
budget but never gates: the traced pass is serial while the untraced
load is concurrent, so the two distributions are not directly
comparable on a noisy machine.

Exit codes: 0 ok (or soft-fail), 1 regression under --strict (or when
the CI environment variable is set), 2 usage/input error.
"""

import json
import os
import subprocess
import sys

THRESHOLD = 1.25  # >25% slower than baseline = regression
TRACE_BUDGET = 1.05  # informational: traced p99 within 5% of untraced

# (file, metric label, extractor, absolute epsilon in the metric's unit)
GATES = [
    ("BENCH_check.json", "check cold wall_ms (best thread count)",
     lambda d: min(r["cold"]["wall_ms"] for r in d["runs"]), 1.0),
    ("BENCH_incr.json", "incr incr_wall_ms",
     lambda d: d["incr_wall_ms"], 1.0),
    ("BENCH_serve.json", "serve p99_us",
     lambda d: d["p99_us"], 1000.0),
    ("BENCH_plan.json", "plan plan_wall_ms",
     lambda d: d["plan_wall_ms"], 1.0),
    ("BENCH_shard.json", "shard shard_wall_ms (4-shard critical path)",
     lambda d: d["shard_wall_ms"], 1.0),
]


def committed(ref, path):
    """The baseline JSON committed at `ref`, or None if absent there."""
    try:
        out = subprocess.run(
            ["git", "show", f"{ref}:{path}"],
            capture_output=True, check=True, text=True,
        ).stdout
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def main(argv):
    strict = "--strict" in argv or os.environ.get("CI", "") != ""
    ref = "HEAD"
    if "--baseline-ref" in argv:
        i = argv.index("--baseline-ref")
        if i + 1 >= len(argv):
            print("perf_gate.py: --baseline-ref needs a git ref", file=sys.stderr)
            return 2
        ref = argv[i + 1]

    regressions = []
    for path, label, extract, epsilon in GATES:
        if not os.path.exists(path):
            print(f"perf_gate.py: {path} missing from the working tree — skipping")
            continue
        with open(path) as f:
            try:
                current = extract(json.load(f))
            except (json.JSONDecodeError, KeyError, ValueError) as e:
                print(f"perf_gate.py: {path} unreadable ({e})", file=sys.stderr)
                return 2
        base_doc = committed(ref, path)
        if base_doc is None:
            print(f"perf_gate.py: no {path} at {ref} — skipping (new baseline)")
            continue
        try:
            base = extract(base_doc)
        except (KeyError, ValueError):
            print(f"perf_gate.py: {path} at {ref} predates this metric — skipping")
            continue
        ratio = current / base if base > 0 else float("inf")
        verdict = "ok"
        if current > base * THRESHOLD and current - base > epsilon:
            verdict = "REGRESSION"
            regressions.append((label, base, current, ratio))
        print(f"perf_gate.py: {label}: baseline {base:g}, current {current:g} "
              f"({ratio:.2f}x) — {verdict}")

    # Informational tracing-overhead report (never gates; see module docs).
    if os.path.exists("BENCH_serve.json"):
        with open("BENCH_serve.json") as f:
            d = json.load(f)
        traced, plain = d.get("p99_traced_us"), d.get("p99_us")
        if traced and plain:
            ratio = traced / plain
            note = "within" if ratio <= TRACE_BUDGET else "outside"
            print(f"perf_gate.py: tracing overhead: traced p99 {traced}us vs "
                  f"untraced p99 {plain}us ({ratio:.2f}x, {note} the "
                  f"{(TRACE_BUDGET - 1) * 100:.0f}% budget; informational)")

    if regressions:
        for label, base, current, ratio in regressions:
            print(f"perf_gate.py: {label} regressed: {base:g} -> {current:g} "
                  f"({ratio:.2f}x > {THRESHOLD:.2f}x)", file=sys.stderr)
        if strict:
            return 1
        print("perf_gate.py: soft-fail (no --strict and CI unset) — not gating")
    else:
        print("perf_gate.py: no regressions beyond the "
              f"{(THRESHOLD - 1) * 100:.0f}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
