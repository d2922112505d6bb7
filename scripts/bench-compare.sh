#!/usr/bin/env bash
# Did this change move the benchmark?  Builds sacbench at a base revision and
# at the working tree, runs every workload three times on each side with the
# same seeds, and prints `sacbench compare`'s verdict table (stdout; progress
# goes to stderr).  Exits non-zero when a row is `worse`, an exact count or
# digest differs, or a run failed.
#
#   scripts/bench-compare.sh [base-rev]        # default: HEAD~1
#
# The base is a `git archive` export, so the repository itself is not touched;
# both sides build into a scratch directory (`mktemp -d`, so TMPDIR chooses
# where) that is removed on exit.  About twelve minutes on two cores.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "${1:-HEAD~1}^{commit}")
sacbench=crates/bench/src/bin/sacbench/Cargo.toml
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

# sb <side> <tree> <args…>: <tree>'s sacbench, built against <tree>'s engine
# into the side's own target directory, run with <args…>.
sb() {
    CARGO_TARGET_DIR="$work/$1-target" cargo run --release --offline --quiet \
        --manifest-path "$2/$sacbench" -- "${@:3}"
}
run_all() {
    echo "bench-compare: $1 ($2)" >&2
    sb "$1" "$2" all --runs 3 --seed 1 --out "$work/$1-out" >/dev/null
}
run_all base "$work/base"
run_all head "$root"

echo "base $base"
echo "head $(git -C "$root" rev-parse HEAD)$(git -C "$root" diff --quiet HEAD || echo ' + uncommitted changes')"
cd "$root" # compare reads ./BENCHMARK.json for the bounds
sb head "$root" compare "$work/base-out/results.trace0.json" "$work/head-out/results.trace0.json"
