#!/usr/bin/env bash
# Registry-free verification of the workspace with bare rustc.
#
# The workspace's external deps (proptest/criterion/serde/serde_json) only
# sit in the outer layers (property suites, benches, CLI/spec JSON), so on a
# machine without crates.io access the heart of the system still builds and
# tests. Nothing here restates the workspace: what is built, in which order
# and against which `--extern`s is read from the Cargo manifests, exactly as
# benchmark/build.sh derives its chain.
#
#   rlibs:  every crates/*/src/lib.rs, ordered by the `[dependencies]` tables
#   units:  each of those again under --test (+ its `[dev-dependencies]`)
#   bins:   every `[[bin]]` of a crate whose dependencies all exist offline
#           (so `figures`, not `jinjing`), plus its unit tests
#   suites: every `[[test]]` entry whose source imports no registry crate
#           (the prop_* suites need proptest and stay with `cargo test`),
#           each run at the default thread count and again under
#           JINJING_THREADS=4 — the determinism half of every contract
#   ruler:  scripts/ruler_smoke.sh, the same stage scripts/ci.sh runs
#
# A dependency is available offline when it is a workspace crate or `rand`
# (the committed splitmix64 stub in scripts/stubs/rand.rs); optional
# dependencies (serde behind default-on features) stay off. Every compile
# gets `--cfg jinjing_offline`, which compiles the serde-backed code out
# (CLI loaders, serde_json round-trip tests). The full check still runs
# under `cargo test`.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-$(mktemp -d /tmp/jinjing-offline.XXXXXX)}"
mkdir -p "$OUT"
RUSTC=(rustc --edition 2021 -C opt-level=1 --cfg jinjing_offline -L "$OUT")

declare -A DIR_OF STATE
ORDER=()

for toml in crates/*/Cargo.toml; do
    name="$(sed -n '/^\[package\]/,/^\[/s/^name *= *"\(.*\)"/\1/p' "$toml")"
    if [ -n "$name" ]; then DIR_OF[$name]="$(dirname "$toml")"; fi
done

# Names in table $2 (`dependencies`, `dev-dependencies`) of crate $1's
# manifest, optional ones left out.
table_of() {
    sed -n "/^\[$2\]/,/^\[/p" "${DIR_OF[$1]}/Cargo.toml" |
        sed -nE '/optional *= *true/d; s/^([A-Za-z0-9_-]+) *=.*/\1/p'
}
available() { [ "$1" = rand ] || [ -n "${DIR_OF[$1]:-}" ]; }
rlib_of() { echo "$OUT/lib${1//-/_}.rlib"; }
# `--extern`s for the offline-available names among crate $1's tables $2...
externs_of() {
    local crate="$1" table dep
    shift
    for table in "$@"; do
        for dep in $(table_of "$crate" "$table"); do
            if available "$dep"; then
                printf -- '--extern %s=%s ' "${dep//-/_}" "$(rlib_of "$dep")"
            fi
        done
    done
}
# `name path` of every `[[$2]]` target crate $1 declares.
targets_of() {
    awk -v section="[[$2]]" -v dir="${DIR_OF[$1]}" '
        /^\[/ { inside = ($0 == section) }
        inside && /^name *=/ { gsub(/"/, "", $3); name = $3 }
        inside && /^path *=/ { gsub(/"/, "", $3); print name, dir "/" $3 }
    ' "${DIR_OF[$1]}/Cargo.toml"
}

visit() {
    local name="$1" dep
    case "${STATE[$name]:-}" in
        done) return ;;
        open) echo "offline_check.sh: dependency cycle through $name" >&2; exit 1 ;;
    esac
    STATE[$name]=open
    for dep in $(table_of "$name" dependencies); do
        if [ -n "${DIR_OF[$dep]:-}" ]; then visit "$dep"; fi
    done
    STATE[$name]=done
    ORDER+=("$name")
}
for name in $(printf '%s\n' "${!DIR_OF[@]}" | sort); do visit "$name"; done

tbin() { # tbin <bin_name> <src> [--extern ...]: build a test binary, run it
    local name="$1" src="$2"
    shift 2
    echo "==> test $name"
    "${RUSTC[@]}" --test --crate-name "$name" "$src" -o "$OUT/$name" "$@"
    "$OUT/$name" -q
}

echo "==> rlib rand (scripts/stubs/rand.rs)"
"${RUSTC[@]}" --crate-type rlib --crate-name rand scripts/stubs/rand.rs -o "$(rlib_of rand)"
for name in "${ORDER[@]}"; do
    echo "==> rlib $name"
    # shellcheck disable=SC2046
    "${RUSTC[@]}" --crate-type rlib --crate-name "${name//-/_}" "${DIR_OF[$name]}/src/lib.rs" \
        -o "$(rlib_of "$name")" $(externs_of "$name" dependencies)
done

for name in "${ORDER[@]}"; do
    # shellcheck disable=SC2046
    tbin "${name#jinjing-}_unit" "${DIR_OF[$name]}/src/lib.rs" \
        $(externs_of "$name" dependencies dev-dependencies)
done

for name in "${ORDER[@]}"; do
    for dep in $(table_of "$name" dependencies); do
        available "$dep" || continue 2 # its binaries need the registry
    done
    # shellcheck disable=SC2207
    link=(--extern "${name//-/_}=$(rlib_of "$name")" $(externs_of "$name" dependencies))
    while read -r bin src; do
        echo "==> bin $bin"
        "${RUSTC[@]}" --crate-name "$bin" "$src" -o "$OUT/$bin" "${link[@]}"
        tbin "${bin}_unit" "$src" "${link[@]}"
    done < <(targets_of "$name" bin)
done

SUITES=()
for name in "${ORDER[@]}"; do
    registry_only="$(for dep in $(table_of "$name" dev-dependencies); do
        available "$dep" || printf '%s|' "${dep//-/_}"
    done)"
    while read -r suite src; do
        if [ -n "$registry_only" ] && grep -qE "^use (${registry_only%|})\b" "$src"; then
            echo "==> skip $suite (imports a registry crate; runs under cargo test)"
            continue
        fi
        # shellcheck disable=SC2046
        tbin "$suite" "$src" $(externs_of "$name" dependencies dev-dependencies)
        SUITES+=("$suite")
    done < <(targets_of "$name" test)
done

# The determinism half of every contract: the same binaries, the same
# assertions (oracles, goldens, daemon bytes), under a 4-worker default.
for suite in "${SUITES[@]}"; do
    echo "==> re-run $suite with JINJING_THREADS=4"
    JINJING_THREADS=4 "$OUT/$suite" -q
done

scripts/ruler_smoke.sh

echo "offline_check.sh: all offline checks passed (artifacts in $OUT)"
