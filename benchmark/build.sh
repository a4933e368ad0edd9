#!/usr/bin/env bash
# Registry-free build of the benchmark harness `jjbench`.
#
# `cargo` cannot resolve the workspace's crates.io dependencies where this
# runs, so the internal rlib chain is compiled with bare `rustc`, in the
# order the crates' own `[dependencies]` tables give. A PR that adds a crate
# or an edge therefore never has to touch this file. `rand` is always the
# committed splitmix64 stub (scripts/stubs/rand.rs), never crates.io `rand`:
# the generated WANs and perturbations must be bit-identical on every host.
# Optional dependencies (serde behind default-on features) stay off, exactly
# as in scripts/offline_check.sh; no crate in the closure needs
# `--cfg jinjing_offline`.
#
#   benchmark/build.sh           build (incrementally) and print the binary path
#   benchmark/build.sh --test    also build and run the harness's unit tests
#
# Output goes to target/benchmark/ under the repo root (already ignored by
# git). Everything but the last line of stdout goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -d crates ] || [ ! -f scripts/stubs/rand.rs ]; then
    echo "build.sh: crates/ and scripts/stubs/rand.rs are missing — this is not a checkout of the repository" >&2
    exit 1
fi

OPT_FLAGS=(--edition 2021 -C opt-level=3)
OUT="$PWD/target/benchmark"
mkdir -p "$OUT/tmp"
# rustc's scratch files stay inside the checkout too.
export TMPDIR="$OUT/tmp"

# The crates the harness links directly; the rest follows from their
# [dependencies] tables.
ROOTS=(jinjing-wan jinjing-shard)

declare -A DIR_OF DEPS_OF STATE
ORDER=()

for toml in crates/*/Cargo.toml; do
    name="$(sed -n '/^\[package\]/,/^\[/s/^name *= *"\(.*\)"/\1/p' "$toml")"
    if [ -n "$name" ]; then DIR_OF[$name]="$(dirname "$toml")"; fi
done

# Names in a crate's [dependencies] table, optional ones left out.
deps_of() {
    sed -n '/^\[dependencies\]/,/^\[/p' "${DIR_OF[$1]}/Cargo.toml" |
        sed -nE '/optional *= *true/d; s/^([A-Za-z0-9_-]+) *=.*/\1/p'
}

visit() {
    local name="$1" dep
    case "${STATE[$name]:-}" in
        done) return ;;
        open) echo "build.sh: dependency cycle through $name" >&2; exit 1 ;;
    esac
    STATE[$name]=open
    if [ "$name" = rand ]; then
        DEPS_OF[$name]=""
    elif [ -n "${DIR_OF[$name]:-}" ]; then
        DEPS_OF[$name]="$(deps_of "$name" | tr '\n' ' ')"
        for dep in ${DEPS_OF[$name]}; do visit "$dep"; done
    else
        echo "build.sh: $name is not a workspace crate and has no offline stub" >&2
        exit 1
    fi
    STATE[$name]=done
    ORDER+=("$name")
}
for r in "${ROOTS[@]}"; do visit "$r"; done

src_of() {
    if [ "$1" = rand ]; then echo scripts/stubs/rand.rs; else echo "${DIR_OF[$1]}/src/lib.rs"; fi
}
rlib_of() { echo "$OUT/lib${1//-/_}.rlib"; }
externs_of() {
    local dep
    for dep in $1; do printf -- '--extern %s=%s ' "${dep//-/_}" "$(rlib_of "$dep")"; done
}
# Is $1 missing, or older than any file under the remaining arguments?
stale() {
    local target="$1"
    shift
    [ -e "$target" ] || return 0
    [ -n "$(find "$@" -newer "$target" -print -quit)" ]
}

for name in "${ORDER[@]}"; do
    src="$(src_of "$name")"
    rlib="$(rlib_of "$name")"
    dep_rlibs=()
    for dep in ${DEPS_OF[$name]}; do dep_rlibs+=("$(rlib_of "$dep")"); done
    if stale "$rlib" "$(dirname "$src")" "${dep_rlibs[@]}" benchmark/build.sh; then
        echo "build.sh: rlib $name" >&2
        # shellcheck disable=SC2046
        rustc "${OPT_FLAGS[@]}" --cap-lints allow -L "$OUT" --crate-type rlib \
            --crate-name "${name//-/_}" "$src" -o "$rlib" \
            $(externs_of "${DEPS_OF[$name]}") >&2
    fi
done

ALL_RLIBS=()
for name in "${ORDER[@]}"; do ALL_RLIBS+=("$(rlib_of "$name")"); done

harness() { # harness <output> [extra rustc flags]
    local bin="$1"
    shift
    if stale "$bin" benchmark/src benchmark/build.sh "${ALL_RLIBS[@]}"; then
        echo "build.sh: $(basename "$bin")" >&2
        # shellcheck disable=SC2046
        rustc "${OPT_FLAGS[@]}" -L "$OUT" --crate-name jjbench benchmark/src/main.rs \
            -o "$bin" "$@" $(externs_of "${ORDER[*]}") >&2
    fi
}

harness "$OUT/jjbench"
if [ "${1:-}" = --test ]; then
    harness "$OUT/jjbench-test" --test
    "$OUT/jjbench-test" -q >&2
fi
echo "$OUT/jjbench"
