#!/usr/bin/env bash
# The benchmark, one command. Builds the harness if needed (registry-free,
# see build.sh), then:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--out DIR] [--quick] [--repeat K]
#       every workload, each in a process of its own: one
#       `workload metric value unit` line per metric, results.json and a
#       Chrome trace per workload under --out; non-zero exit on any failed op
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result as one JSON object
#   benchmark/run.sh compare A.json B.json
#       two result sets against the bounds of BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
bin="$(bash benchmark/build.sh)"
exec "$bin" "$@"
