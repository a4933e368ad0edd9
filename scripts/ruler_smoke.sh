#!/usr/bin/env bash
# The ruler as a CI stage, shared by scripts/ci.sh and
# scripts/offline_check.sh: the harness's own unit tests, then one pass of
# every workload through the query, session, daemon and shard front doors.
# `--quick` exits non-zero on any failed op, oracle disagreement or
# cross-door byte mismatch; of its metric lines only the per-workload
# `failed_share` verdicts are shown. Correctness only: CI hosts are too
# noisy for a timing gate (`benchmark/run.sh compare` is the tool for that).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> ruler: benchmark/build.sh --test"
bash benchmark/build.sh --test >/dev/null
echo "==> ruler: benchmark/run.sh --quick"
bash benchmark/run.sh --quick | grep ' failed_share '
