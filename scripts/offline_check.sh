#!/usr/bin/env bash
# Registry-free verification of the internal dependency chain.
#
# The workspace's external deps (proptest/criterion/serde_json/rand) only sit
# in the outer layers (property suites, benches, CLI/spec JSON). Everything
# inner — acl, obs, solver, lai, net (without the `spec` feature), core — is
# std-only, so on a machine without crates.io access we can still build and
# test the heart of the system with bare rustc:
#
#   rlibs:  acl → obs → par → {solver, lai, net} → lint → core → serve →
#           shard → cli (+ the scripts/stubs/rand.rs facade → wan → bench)
#   tests:  acl unit, obs unit, par unit, solver unit, lint unit, core unit,
#           serve unit, shard unit, cli unit (offline subset), wan unit,
#           tests/obs_integration.rs,
#           tests/lint_integration.rs, tests/lint_multi.rs,
#           tests/par_determinism.rs,
#           tests/running_example.rs, tests/wan_integration.rs,
#           tests/incr_oracle.rs (+ a JINJING_THREADS=4 re-run),
#           tests/cli_golden.rs (+ a JINJING_THREADS=4 re-run),
#           tests/serve_integration.rs (+ a JINJING_THREADS=4 re-run),
#           tests/shard_integration.rs (+ a JINJING_THREADS=4 re-run),
#           tests/trace_export.rs,
#           tests/solver_incremental.rs (+ a JINJING_THREADS=4 re-run),
#           tests/plan_oracle.rs (+ a JINJING_THREADS=4 re-run)
#   bench:  the `figures` binary's `incr --small` replay, regenerating
#           BENCH_incr.json into $OUT and sanity-probing its shape, plus a
#           `figures serve` loopback daemon smoke writing BENCH_serve.json,
#           a `figures plan` rollout-synthesis smoke writing
#           BENCH_plan.json, and a `figures shard` partition smoke writing
#           BENCH_shard.json
#
# serde-dependent code (spec JSON, CLI loaders, serde_json round-trips) is
# compiled out under `--cfg jinjing_offline`; `rand` is satisfied by the
# committed splitmix64 stub in scripts/stubs/rand.rs. The full check still
# runs under `cargo test`.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-$(mktemp -d /tmp/jinjing-offline.XXXXXX)}"
mkdir -p "$OUT"
RUSTC=(rustc --edition 2021 -C opt-level=1 -L "$OUT")

rlib() { # rlib <crate_snake> <path> [--extern ...]
    local name="$1" src="$2"
    shift 2
    echo "==> rlib $name"
    "${RUSTC[@]}" --crate-type rlib --crate-name "$name" "$src" \
        -o "$OUT/lib$name.rlib" "$@"
}

tbin() { # tbin <bin_name> <src> [--extern ...]
    local name="$1" src="$2"
    shift 2
    echo "==> test $name"
    "${RUSTC[@]}" --test --crate-name "$name" "$src" -o "$OUT/$name" "$@"
    "$OUT/$name" -q
}

A="--extern jinjing_acl=$OUT/libjinjing_acl.rlib"
O="--extern jinjing_obs=$OUT/libjinjing_obs.rlib"

rlib jinjing_acl crates/acl/src/lib.rs
rlib jinjing_obs crates/obs/src/lib.rs
rlib jinjing_par crates/par/src/lib.rs
rlib jinjing_solver crates/solver/src/lib.rs $A $O
rlib jinjing_lai crates/lai/src/lib.rs $A
rlib jinjing_net crates/net/src/lib.rs $A # no --cfg feature="spec": serde-free
rlib jinjing_lint crates/lint/src/lib.rs $A $O \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" # no `spec` feature
rlib jinjing_core crates/core/src/lib.rs $A $O \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib"
rlib jinjing_serve crates/serve/src/lib.rs $A $O \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib"
rlib jinjing_shard crates/shard/src/lib.rs $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib"
rlib jinjing_cli crates/cli/src/lib.rs --cfg jinjing_offline $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib" \
    --extern jinjing_shard="$OUT/libjinjing_shard.rlib"
rlib rand scripts/stubs/rand.rs
rlib jinjing_wan crates/wan/src/lib.rs $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern rand="$OUT/librand.rlib"
rlib jinjing_bench crates/bench/src/lib.rs $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_wan="$OUT/libjinjing_wan.rlib" \
    --extern rand="$OUT/librand.rlib"

tbin acl_unit crates/acl/src/lib.rs
tbin obs_unit crates/obs/src/lib.rs
tbin par_unit crates/par/src/lib.rs
tbin solver_unit crates/solver/src/lib.rs $A $O
tbin lint_unit crates/lint/src/lib.rs $A $O \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_par="$OUT/libjinjing_par.rlib"
tbin core_unit crates/core/src/lib.rs $A $O \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib"
tbin obs_integration tests/obs_integration.rs --cfg jinjing_offline $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib"
tbin par_determinism tests/par_determinism.rs $A $O \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib"
tbin lint_integration tests/lint_integration.rs --cfg jinjing_offline $A \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib"
tbin lint_multi tests/lint_multi.rs $A $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib"
tbin serve_unit crates/serve/src/lib.rs $A $O \
    --extern jinjing_par="$OUT/libjinjing_par.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib"
tbin shard_unit crates/shard/src/lib.rs $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib"
tbin cli_unit crates/cli/src/lib.rs --cfg jinjing_offline $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib" \
    --extern jinjing_shard="$OUT/libjinjing_shard.rlib"
tbin running_example tests/running_example.rs $A \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib"
tbin wan_unit crates/wan/src/lib.rs $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern rand="$OUT/librand.rlib"
tbin wan_integration tests/wan_integration.rs $A $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_wan="$OUT/libjinjing_wan.rlib"
tbin incr_oracle tests/incr_oracle.rs $A $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib"
tbin plan_oracle tests/plan_oracle.rs $A \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib"
tbin cli_golden tests/cli_golden.rs --cfg jinjing_offline $A $O \
    --extern jinjing_cli="$OUT/libjinjing_cli.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_net="$OUT/libjinjing_net.rlib"
tbin serve_integration tests/serve_integration.rs $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib"
tbin shard_integration tests/shard_integration.rs $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib" \
    --extern jinjing_shard="$OUT/libjinjing_shard.rlib"
tbin trace_export tests/trace_export.rs --cfg jinjing_offline $O \
    --extern jinjing_core="$OUT/libjinjing_core.rlib"
tbin solver_incremental tests/solver_incremental.rs \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib"

# The determinism half of the incremental contract: the oracle suites and
# the golden files must hold verbatim under a 4-worker default too — and
# the daemon must render the same bytes when the engine runs 4-wide.
echo "==> re-run incr_oracle + plan_oracle + cli_golden + serve_integration + shard_integration + solver_incremental + lint_multi with JINJING_THREADS=4"
JINJING_THREADS=4 "$OUT/incr_oracle" -q
JINJING_THREADS=4 "$OUT/plan_oracle" -q
JINJING_THREADS=4 "$OUT/cli_golden" -q
JINJING_THREADS=4 "$OUT/serve_integration" -q
JINJING_THREADS=4 "$OUT/shard_integration" -q
JINJING_THREADS=4 "$OUT/solver_incremental" -q
# The cross-tenant gate equivalent of ci.sh's two-tenant CLI step: the
# committed example pair runs through engine::lint_multi inside this
# suite (the real `jinjing lint --intent tenant=FILE` binary needs the
# serde-backed loaders, which the offline build compiles out).
JINJING_THREADS=4 "$OUT/lint_multi" -q

# Incremental-replay smoke: regenerate BENCH_incr.json (into $OUT — the
# committed copy is refreshed by scripts/ci.sh's online path) and check
# the headline claim: dirty pairs ≪ the cold per-step pair ceiling.
echo "==> figures incr --small (BENCH_incr.json smoke)"
"${RUSTC[@]}" -C opt-level=2 --crate-name figures crates/bench/src/bin/figures.rs \
    -o "$OUT/figures" $A $O \
    --extern jinjing_net="$OUT/libjinjing_net.rlib" \
    --extern jinjing_lai="$OUT/libjinjing_lai.rlib" \
    --extern jinjing_core="$OUT/libjinjing_core.rlib" \
    --extern jinjing_wan="$OUT/libjinjing_wan.rlib" \
    --extern jinjing_bench="$OUT/libjinjing_bench.rlib" \
    --extern jinjing_solver="$OUT/libjinjing_solver.rlib" \
    --extern jinjing_lint="$OUT/libjinjing_lint.rlib" \
    --extern jinjing_serve="$OUT/libjinjing_serve.rlib"
"$OUT/figures" incr --small --bench-out "$OUT/BENCH_incr.json" >/dev/null
grep -q '"benchmark":"incr"' "$OUT/BENCH_incr.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT/BENCH_incr.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "incr" and d["network"] == "small", d
assert d["dirty_pairs_total"] * 2 < d["pairs_ceiling_total"], \
    f"incremental pruning regressed: {d['dirty_pairs_total']} dirty vs ceiling {d['pairs_ceiling_total']}"
print(f"BENCH_incr.json: {d['steps']} steps, {d['dirty_pairs_total']} dirty pairs "
      f"vs ceiling {d['pairs_ceiling_total']}, speedup {d['speedup']}x")
EOF
else
    echo "offline_check.sh: python3 not installed — skipping BENCH_incr.json probe" >&2
fi

# Daemon smoke: `figures serve` spins up a loopback jinjing-serve instance,
# drives 100 concurrent /v1/check requests plus a session delta round, and
# asserts every response body matches the in-process rendering byte for
# byte. Run it single- and 4-threaded: the wire bytes must not care how
# wide the engine runs.
echo "==> figures serve (loopback daemon smoke, BENCH_serve.json)"
JINJING_THREADS=1 "$OUT/figures" serve --bench-out "$OUT/BENCH_serve.json" >/dev/null
grep -q '"bodies_identical":true' "$OUT/BENCH_serve.json"
JINJING_THREADS=4 "$OUT/figures" serve --bench-out "$OUT/BENCH_serve.json" >/dev/null
grep -q '"bodies_identical":true' "$OUT/BENCH_serve.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT/BENCH_serve.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "serve" and d["bodies_identical"] is True, d
assert d["requests"] == d["clients"] * 25 and d["shed"] == 0, d
print(f"BENCH_serve.json: {d['requests']} requests over {d['clients']} clients, "
      f"p50 {d['p50_us']}us, {d['throughput_rps']} req/s, shed {d['shed']}")
EOF
else
    echo "offline_check.sh: python3 not installed — skipping BENCH_serve.json probe" >&2
fi

# Flight-recorder smoke: `figures trace` runs the Figure 1 check with the
# recorder armed (asserting the plan bytes match an untraced run) and
# dumps the Chrome trace_event JSON; the probe checks the export is
# strict JSON with balanced B/E spans and monotone timestamps per track.
echo "==> figures trace (flight-recorder Chrome export smoke)"
"$OUT/figures" trace --trace-out "$OUT/trace_smoke.json" >/dev/null
grep -q '"traceEvents"' "$OUT/trace_smoke.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT/trace_smoke.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["displayTimeUnit"] == "ms", d
assert d["otherData"]["dropped_events"] == 0, d
evs = d["traceEvents"]
assert evs, "empty capture"
open_spans, last_ts = {}, {}
for e in evs:
    tid, ph = e["tid"], e["ph"]
    assert e["pid"] == 1, e
    if ph == "B":
        open_spans[tid] = open_spans.get(tid, 0) + 1
    elif ph == "E":
        assert open_spans.get(tid, 0) > 0, f"E without B on tid {tid}"
        open_spans[tid] -= 1
    if "ts" in e:
        assert e["ts"] >= last_ts.get(tid, -1.0), f"ts not monotone on tid {tid}"
        last_ts[tid] = e["ts"]
assert all(n == 0 for n in open_spans.values()), f"unbalanced: {open_spans}"
spans = {e["name"] for e in evs if e["ph"] == "B"}
assert {"engine.run", "check.pair", "solver.query"} <= spans, spans
print(f"trace_smoke.json: {len(evs)} events over {len(last_ts)} track(s), "
      f"balanced and monotone")
EOF
else
    echo "offline_check.sh: python3 not installed — skipping trace probe" >&2
fi

# Rollout-synthesis smoke: `figures plan` synthesizes certified plans for
# the seeded update campaigns (drain / staged_swap / no_order), asserting
# internally that the rendered plan bytes are thread-count-independent;
# the probe checks the headline claims — every wave of a feasible plan
# carries a certificate, the no-order campaign reports a core, and the
# planner's probe work stays within half the cold per-prefix ceiling.
echo "==> figures plan (rollout-synthesis smoke, BENCH_plan.json)"
"$OUT/figures" plan --bench-out "$OUT/BENCH_plan.json" >/dev/null
grep -q '"benchmark":"plan"' "$OUT/BENCH_plan.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT/BENCH_plan.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "plan" and d["network"] == "small", d
assert d["dirty_pairs_total"] * 2 <= d["pairs_ceiling_total"], \
    f"plan probe pruning regressed: {d['dirty_pairs_total']} dirty vs ceiling {d['pairs_ceiling_total']}"
for s in d["scenarios"]:
    if s["feasible"]:
        assert s["certificates"] == s["waves"] >= 1, s
    else:
        assert s["core"] >= 1 and s["waves"] == 0, s
assert any(not s["feasible"] for s in d["scenarios"]), "no infeasible scenario"
print(f"BENCH_plan.json: {d['steps']} steps over {len(d['scenarios'])} scenarios, "
      f"{d['dirty_pairs_total']} dirty pairs vs ceiling {d['pairs_ceiling_total']}")
EOF
else
    echo "offline_check.sh: python3 not installed — skipping BENCH_plan.json probe" >&2
fi

# Shard-partition smoke: `figures shard` checks the same small-WAN
# workload unsharded and restricted to each slice of a 1/2/4/8-way
# consistent-hash partition, asserting internally that per-shard dirty
# pairs and solver queries sum to the unsharded totals; the probe checks
# the artifact's shape and the zero-duplication headline.
echo "==> figures shard (consistent-hash partition smoke, BENCH_shard.json)"
"$OUT/figures" shard --bench-out "$OUT/BENCH_shard.json" >/dev/null
grep -q '"benchmark":"shard"' "$OUT/BENCH_shard.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT/BENCH_shard.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "shard" and d["network"] == "small", d
assert d["partition_exact"] is True, d
base = d["baseline"]
for w in d["widths"]:
    assert w["dirty_pairs_sum"] == base["dirty_pairs"], w
    assert w["queries_sum"] == base["queries"], w
assert [w["shards"] for w in d["widths"]] == [1, 2, 4, 8], d
print(f"BENCH_shard.json: {base['dirty_pairs']} pairs / {base['queries']} queries "
      f"partitioned exactly at widths 1/2/4/8")
EOF
else
    echo "offline_check.sh: python3 not installed — skipping BENCH_shard.json probe" >&2
fi

echo "offline_check.sh: all offline checks passed (artifacts in $OUT)"
