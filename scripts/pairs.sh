#!/usr/bin/env bash
# Alternating parent/change pairs through the ruler (ROADMAP ground rule (i)).
#
#   scripts/pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS] [SEED]
#
# Each tree is a checkout; each is measured by its *own*
# `benchmark/run.sh --workload W --seed S --seconds T --trace 0` (which
# builds what it runs from that checkout). The side that runs first flips
# every pair. Every run is printed, failed operations included; then, per
# end-to-end metric of BENCHMARK.json, both medians, both quartile pairs and
# the pair-wise wins (ties count for neither side). A gain holds when the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the parent's own inter-quartile distance — the script prints the
# numbers, the reader draws the conclusion. Last, one `--trace 1` run per
# tree: every count-unit per-layer metric side by side, the ones that differ
# marked — the deterministic counters a claim is read next to — and every
# ms-unit per-layer metric side by side with change/parent, where the time
# a per-layer claim names is read (one run each: timings, not evidence).
#
# A comma-separated list runs all of the above for each workload in turn,
# and the output ends with one summary row per workload and end-to-end
# metric, so a witness and its bypass workloads come from one command.
#
# Defaults: 10 pairs, BENCHMARK.json's run_seconds, the ruler's default seed.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
IFS=',' read -r -a workloads <<<"$3"
pairs="${4:-10}"
manifest="$change/BENCHMARK.json"
seconds="${5:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$manifest")}"
seed="${6:-0xBE7C0000}"

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

one_run() { # one_run <workload> <pair> <side> <tree>
    local line
    line="$(bash "$4/benchmark/run.sh" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$line" >>"$runs"
    printf 'pair %2d %-6s %s\n' "$2" "$3" "$(summary "$line")"
}

summary() { # the end-to-end metrics and the op counts of one result line
    python3 - "$manifest" "$1" <<'EOF'
import json, sys
names = [m["name"] for m in json.load(open(sys.argv[1]))["end_to_end"]]
r = json.loads(sys.argv[2])
cells = [f"{n} {r['metrics'][n]['value']:.4g}" for n in names]
print("  ".join(cells + [f"ops {r['attempted']} failed {r['failed']}"]))
EOF
}

stats() { # stats <workload|--summary>: pair statistics of the recorded runs
    python3 - "$manifest" "$runs" "$1" <<'EOF'
import json, sys

def quantile(sorted_values, q):
    # Linear interpolation between order statistics.
    at = q * (len(sorted_values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (at - lo)

metrics = json.load(open(sys.argv[1]))["end_to_end"]
by_workload = {}
for line in open(sys.argv[2]):
    workload, pair, side, result = line.rstrip("\n").split("\t", 3)
    by_workload.setdefault(workload, {}).setdefault(int(pair), {})[side] = json.loads(result)

def compare(pairs, name, lower):
    side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
    wins = {"parent": 0, "change": 0}
    for a, b in zip(side["parent"], side["change"]):
        if a != b:
            wins["change" if (b < a) == lower else "parent"] += 1
    return {s: sorted(v) for s, v in side.items()}, wins

def ratio(p, c):
    return f"{c / p:.3f}" if p else "n/a"

if sys.argv[3] == "--summary":
    print(f"\nsummary: medians over the pairs, per workload and end-to-end metric")
    print(f"  {'workload':<24} {'metric':<16} {'parent':>10} {'change':>10} "
          f"{'chg/par':>8} {'won':>7} {'failed':>9}")
    for workload, by_pair in by_workload.items():
        pairs = [by_pair[k] for k in sorted(by_pair)]
        failed = "/".join(str(sum(p[s]["failed"] for p in pairs)) for s in ("parent", "change"))
        for m in metrics:
            side, wins = compare(pairs, m["name"], m["better"] == "lower")
            p, c = (quantile(side[s], 0.5) for s in ("parent", "change"))
            print(f"  {workload:<24} {m['name']:<16} {p:>10.4g} {c:>10.4g} {ratio(p, c):>8} "
                  f"{wins['change']:>3}/{len(pairs):<3} {failed:>9}")
    sys.exit(0)

by_pair = by_workload[sys.argv[3]]
pairs = [by_pair[k] for k in sorted(by_pair)]
failed = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
attempted = {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")}
print(f"\nfailed ops: parent {failed['parent']}/{attempted['parent']}, "
      f"change {failed['change']}/{attempted['change']}")
for m in metrics:
    name = m["name"]
    side, wins = compare(pairs, name, m["better"] == "lower")
    print(f"{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
    for s in ("parent", "change"):
        v = side[s]
        print(f"  {s}: median {quantile(v, 0.5):.4g}  quartiles {quantile(v, 0.25):.4g} .. "
              f"{quantile(v, 0.75):.4g}  range {v[0]:.4g} .. {v[-1]:.4g}")
    p, c = quantile(side["parent"], 0.5), quantile(side["change"], 0.5)
    print(f"  change/parent {ratio(p, c)}; pairs won: change {wins['change']}, "
          f"parent {wins['parent']}, of {len(pairs)}")
EOF
}

traced() { # traced <workload> <tree>: the result line of one traced run
    bash "$2/benchmark/run.sh" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace 1 2>/dev/null | tail -n 1
}

counters() { # counters <workload>: one traced run per tree, side by side
    echo
    echo "counters: count-unit per-layer metrics, one --trace 1 run per tree (* = differs)"
    python3 - "$manifest" "$(traced "$1" "$parent")" "$(traced "$1" "$change")" <<'EOF'
import json, sys

per_layer = json.load(open(sys.argv[1]))["per_layer"]
parent, change = (json.loads(arg)["metrics"] for arg in sys.argv[2:4])
cell = lambda v: "-" if v is None else f"{v:.10g}"

def rows(unit):
    for m in per_layer:
        if m["unit"] == unit:
            a, b = (side.get(m["name"], {}).get("value") for side in (parent, change))
            if a is not None or b is not None:
                yield m["name"], a, b

print(f"    {'metric':<28} {'parent':>14} {'change':>14}")
for name, a, b in rows("count"):
    print(f"  {'*' if a != b else ' '} {name:<28} {cell(a):>14} {cell(b):>14}")
print("\ntimings: ms-unit per-layer metrics the workload uses, the same two runs")
print(f"    {'metric':<28} {'parent':>14} {'change':>14} {'change/parent':>14}")
for name, a, b in rows("ms"):
    if not a and not b:
        continue
    ratio = f"{b / a:.3f}" if a and b is not None else "-"
    print(f"    {name:<28} {cell(a and round(a, 3)):>14} {cell(b and round(b, 3)):>14} {ratio:>14}")
EOF
}

echo "pairs.sh: ${workloads[*]}, $pairs pairs, $seconds s, seed $seed"
echo "pairs.sh: parent $parent"
echo "pairs.sh: change $change"
for workload in "${workloads[@]}"; do
    echo
    echo "== $workload"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            one_run "$workload" "$i" parent "$parent"
            one_run "$workload" "$i" change "$change"
        else
            one_run "$workload" "$i" change "$change"
            one_run "$workload" "$i" parent "$parent"
        fi
    done
    stats "$workload"
    counters "$workload"
done
stats --summary
