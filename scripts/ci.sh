#!/usr/bin/env bash
# CI entry point: build, test, smokes, ruler, format, lint, rustdoc.
#
# cargo is the only build route and it needs no network: every dependency
# is a path crate inside this repository and Cargo.lock is committed, so
# every cargo call runs --locked --offline — here, in GitHub's runner and
# on an air-gapped machine alike.
set -euo pipefail
cd "$(dirname "$0")/.."

# expect_exit N cmd...: run cmd and require exit status N — the gates
# below (3 = inconsistent / rejected / infeasible, 4 = lint) are part of
# the CLI's contract, so any other status fails CI.
expect_exit() {
    local want="$1" rc=0
    shift
    "$@" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ci.sh: expected exit $want, got $rc: $*" >&2
        return 1
    fi
}

# The `jinjing` binary, as every smoke below runs it.
jinjing() { cargo run --locked --offline --release -q -p jinjing-cli --bin jinjing -- "$@"; }

echo "==> Cargo.lock names no registry"
if grep -n '^source = ' Cargo.lock; then
    echo "ci.sh: Cargo.lock has a non-path dependency; the workspace must build with no registry" >&2
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --locked --offline --release --workspace

# Generate at every preset, both emissions: the only run of generate at the
# large preset and of the basic emission beyond Figure 1. A correctness
# smoke (each generate must succeed, so exit 0), not a timing gate.
echo "==> figures fig4c fig4d"
cargo run --locked --offline --release -q -p jinjing-bench --bin figures -- fig4c fig4d >/dev/null

# Twice: the determinism contract says every report is byte-identical for
# every thread count, so the same suites (oracles, goldens, daemon bytes)
# run again with a 4-worker default.
echo "==> cargo test --workspace -q"
cargo test --locked --offline --workspace -q
echo "==> JINJING_THREADS=4 cargo test --workspace -q"
JINJING_THREADS=4 cargo test --locked --offline --workspace -q

echo "==> jinjing lint (examples/data fixtures)"
# Static analysis over the shipped example specs: warnings/notes are
# expected (the running example is deliberately broken), but any
# error-severity finding — or a failure to parse the fixtures at all —
# fails CI (`lint` exits 4 on errors, 1 on bad input).
jinjing lint \
    --network examples/data/figure1-network.json \
    --acls examples/data/figure1-acls.json \
    --intent examples/data/running-example.lai \
    --format json >/dev/null

echo "==> jinjing lint --intent tenant=FILE (cross-tenant examples)"
# The disjoint pair is clean: gating on JL301 must still exit 0.
jinjing lint \
    --network examples/data/figure1-network.json \
    --acls examples/data/figure1-acls.json \
    --intent alpha=examples/data/tenant-alpha.lai \
    --intent gamma=examples/data/tenant-gamma.lai \
    --deny JL301 --format json >/dev/null
# The conflicting pair carries a solver-certified JL301: denying the
# JL3xx family must gate with exit 4.
expect_exit 4 jinjing lint \
    --network examples/data/figure1-network.json \
    --acls examples/data/figure1-acls.json \
    --intent alpha=examples/data/tenant-alpha.lai \
    --intent beta=examples/data/tenant-beta.lai \
    --priority alpha,beta \
    --deny 'JL3*' --format sarif >/dev/null

echo "==> jinjing show --network (a malformed spec is an error)"
# A network the topology cannot hold — here an announcement on a linked
# interface — must exit 1 with the canonical `<file>: <json path>: <what>`
# error, not panic (exit 101).
spec="$(mktemp)"
cat >"$spec" <<'EOF'
{
  "devices": [
    {"name": "A", "interfaces": ["0", "1"]},
    {"name": "B", "interfaces": ["0", "1"]}
  ],
  "links": [["A:1", "B:0"]],
  "announcements": [{"prefix": "1.0.0.0/8", "interface": "B:0"}]
}
EOF
expect_exit 1 jinjing show --network "$spec" 2>"$spec.err"
grep -qF "$spec: announcements[0]: interface \"B:0\" is linked" "$spec.err"
rm -f "$spec" "$spec.err"

echo "==> rollout-plan smoke (certified update sequencing)"
# The committed relocation target is feasible but order-sensitive
# (A:3-out must tighten before C:1 clears): `plan` must exit 0 and emit
# one wave certificate per wave, with every decomposed step scheduled.
plan_dir="$(mktemp -d)"
jinjing plan \
    --network examples/data/figure1-network.json \
    --acls examples/data/figure1-acls.json \
    --intent examples/data/rollout-scope.lai \
    --target examples/data/rollout-target.deltas \
    --format json >"$plan_dir/plan.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$plan_dir/plan.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["command"] == "plan" and not d["core"], d
assert len(d["certificates"]) == len(d["waves"]) >= 1, d
scheduled = sorted(dev for wave in d["waves"] for dev in wave)
assert scheduled == sorted(s["device"] for s in d["steps"]), d
assert all(c["commuting"] for c in d["certificates"]), d
print(f"plan.json: {len(d['steps'])} steps in {len(d['waves'])} waves, "
      f"all certificates commuting")
EOF
else
    grep -q '"command":"plan"' "$plan_dir/plan.json"
fi
# The impossible target (clear D:2 leaks traffic 1/2 in any order) must
# gate with exit 3 and name the infeasibility core.
expect_exit 3 jinjing plan \
    --network examples/data/figure1-network.json \
    --acls examples/data/figure1-acls.json \
    --intent examples/data/rollout-scope.lai \
    --target examples/data/rollout-impossible.deltas \
    --format json >"$plan_dir/impossible.json"
grep -q '"core":\["D"\]' "$plan_dir/impossible.json"
rm -rf "$plan_dir"

echo "==> daemon smoke (serve ⇄ call round trip, threads 1 and 4)"
# Boot the verification daemon on an ephemeral port, drive it with the
# `jinjing call` thin client — a check (exit 3: the running example is
# inconsistent), a session open → rejected delta (exit 3) → delete, a live
# /metrics scrape — then drain it with /v1/shutdown and require a clean
# exit. Once single-threaded, once with a 4-wide engine: the wire bytes
# and exit codes must not care.
serve_smoke() {
    local threads="$1" dir pid addr sid
    dir="$(mktemp -d)"
    printf 'step open-d2\nset D:2 default permit\n' >"$dir/edit.deltas"
    JINJING_THREADS="$threads" jinjing serve \
        --network examples/data/figure1-network.json \
        --acls examples/data/figure1-acls.json \
        --addr 127.0.0.1:0 --port-file "$dir/port" >"$dir/serve.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do [ -s "$dir/port" ] && break; sleep 0.1; done
    [ -s "$dir/port" ] || { cat "$dir/serve.log" >&2; return 1; }
    addr="$(cat "$dir/port")"
    jj() { jinjing call --addr "$addr" "$@"; }

    expect_exit 3 jj --path /v1/check --body-file examples/data/running-example.lai \
        >"$dir/check.json"
    grep -q '"verdict":"inconsistent' "$dir/check.json"

    jj --path /v1/sessions --body-file examples/data/running-example.lai >"$dir/open.json"
    sid="$(sed -n 's/.*"id":"\(s[0-9]*\)".*/\1/p' "$dir/open.json")"
    [ -n "$sid" ] || { echo "no session id in $(cat "$dir/open.json")" >&2; return 1; }
    expect_exit 3 jj --path "/v1/sessions/$sid/delta" --body-file "$dir/edit.deltas" \
        >"$dir/delta.json"
    grep -q '"rejected":1' "$dir/delta.json"
    jj --method DELETE --path "/v1/sessions/$sid" >/dev/null

    jj --method GET --path /metrics >"$dir/metrics.txt"
    grep -q '^jinjing_serve_requests_total ' "$dir/metrics.txt"
    grep -q '^jinjing_serve_deltas_rejected 1' "$dir/metrics.txt"

    jj --path /v1/shutdown >/dev/null
    wait "$pid" || { echo "daemon exited non-zero after drain" >&2; return 1; }
    rm -rf "$dir"
}
serve_smoke 1
serve_smoke 4

echo "==> shard smoke (coordinator + 2 backends: byte-parity + streaming)"
# Boot two stock jinjing-serve backends and a jinjing-shard coordinator
# fronting them, then require (a) the coordinator's /v1/check and /v1/lint
# bodies byte-identical to a lone daemon's (the byte-identity merge
# contract, over real sockets), (b) the thin client's --shards lint
# fan-out rendering the same bytes, and (c) the chunked streaming form
# emitting per-shard progress docs before an identical final chunk.
shard_smoke() {
    local dir bpid1 bpid2 cpid addr1 caddr
    dir="$(mktemp -d)"
    for i in 1 2; do
        jinjing serve \
            --network examples/data/figure1-network.json \
            --acls examples/data/figure1-acls.json \
            --addr 127.0.0.1:0 --port-file "$dir/b$i.port" >"$dir/b$i.log" 2>&1 &
        eval "bpid$i=\$!"
    done
    for _ in $(seq 1 100); do [ -s "$dir/b1.port" ] && [ -s "$dir/b2.port" ] && break; sleep 0.1; done
    [ -s "$dir/b1.port" ] && [ -s "$dir/b2.port" ] || { cat "$dir"/b*.log >&2; return 1; }
    addr1="$(cat "$dir/b1.port")"
    jinjing shard \
        --network examples/data/figure1-network.json \
        --acls examples/data/figure1-acls.json \
        --backends "$(cat "$dir/b1.port"),$(cat "$dir/b2.port")" \
        --addr 127.0.0.1:0 --port-file "$dir/coord.port" >"$dir/coord.log" 2>&1 &
    cpid=$!
    for _ in $(seq 1 100); do [ -s "$dir/coord.port" ] && break; sleep 0.1; done
    [ -s "$dir/coord.port" ] || { cat "$dir/coord.log" >&2; return 1; }
    caddr="$(cat "$dir/coord.port")"
    jj() { jinjing call "$@"; }

    # Byte-parity: coordinator vs lone daemon, both gating with exit 3.
    expect_exit 3 jj --addr "$caddr" --path /v1/check \
        --body-file examples/data/running-example.lai >"$dir/coord-check.json"
    expect_exit 3 jj --addr "$addr1" --path /v1/check \
        --body-file examples/data/running-example.lai >"$dir/solo-check.json"
    cmp "$dir/coord-check.json" "$dir/solo-check.json" \
        || { echo "sharded check drifted from the single-process bytes" >&2; return 1; }

    jj --addr "$caddr" --path /v1/lint \
        --body-file examples/data/running-example.lai >"$dir/coord-lint.json"
    jj --addr "$addr1" --path /v1/lint \
        --body-file examples/data/running-example.lai >"$dir/solo-lint.json"
    cmp "$dir/coord-lint.json" "$dir/solo-lint.json" \
        || { echo "sharded lint drifted from the single-process bytes" >&2; return 1; }

    # The thin client's own lint fan-out renders the same bytes too.
    jj --shards "$(cat "$dir/b1.port"),$(cat "$dir/b2.port")" --path /v1/lint \
        --body-file examples/data/running-example.lai >"$dir/client-lint.json"
    cmp "$dir/client-lint.json" "$dir/solo-lint.json" \
        || { echo "call --shards lint drifted from the single-process bytes" >&2; return 1; }

    # Streaming probe: chunked transfer, >=2 progress docs, final chunk
    # byte-identical to the plain response.
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$caddr" examples/data/running-example.lai "$dir/coord-check.json" <<'EOF'
import http.client, sys
addr, intent_path, plain_path = sys.argv[1:4]
body = open(intent_path, "rb").read()
conn = http.client.HTTPConnection(addr, timeout=60)
conn.request("POST", "/v1/check", body, {"X-Jinjing-Stream": "1"})
resp = conn.getresponse()
assert resp.status == 200, resp.status
assert resp.getheader("Transfer-Encoding") == "chunked", resp.getheaders()
assert resp.getheader("X-Jinjing-Exit") is None, "streamed responses carry no exit header"
data = resp.read()
conn.close()
plain = open(plain_path, "rb").read()
assert data.endswith(plain), "final streamed bytes != plain response"
progress = data[: len(data) - len(plain)].decode()
docs = [l for l in progress.splitlines() if l.strip()]
assert len(docs) >= 2, f"want a progress doc per shard, got {docs!r}"
assert all('"shards":2' in d for d in docs), docs
print(f"shard streaming: {len(docs)} progress docs, final chunk identical")
EOF
    else
        echo "ci.sh: python3 not installed — skipping the streaming probe" >&2
    fi

    jj --addr "$caddr" --path /v1/shutdown >/dev/null
    wait "$cpid" || { echo "coordinator exited non-zero after drain" >&2; return 1; }
    for i in 1 2; do
        jj --addr "$(cat "$dir/b$i.port")" --path /v1/shutdown >/dev/null
    done
    wait "$bpid1" "$bpid2" || { echo "a backend exited non-zero after drain" >&2; return 1; }
    rm -rf "$dir"
}
shard_smoke

# The ruler: the harness's own unit tests, then every workload once through
# the query, session, daemon and shard front doors. `--quick` exits non-zero
# on any failed op, oracle disagreement or cross-door byte mismatch; of its
# metric lines only the per-workload `failed_share` verdicts are shown.
# Correctness only: CI hosts are too noisy for a timing gate
# (`benchmark/run.sh compare` is the tool for that).
echo "==> ruler: benchmark/build.sh --test"
bash benchmark/build.sh --test >/dev/null
echo "==> ruler: benchmark/run.sh --quick"
bash benchmark/run.sh --quick | grep ' failed_share '

echo "==> cargo fmt --all --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "ci.sh: rustfmt not installed — skipping format check" >&2
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --locked --offline --workspace --all-targets -- -D warnings
else
    echo "ci.sh: clippy not installed — skipping lint" >&2
fi

# The module docs state contracts (session vs cold check, determinism,
# exit codes); a link to an item that moved or went private fails here.
echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --offline --workspace --no-deps

echo "ci.sh: all checks passed"
