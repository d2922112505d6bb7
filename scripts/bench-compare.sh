#!/usr/bin/env bash
# Did this change move the benchmark?  Builds sacbench at a base revision and
# at the working tree, then runs ten pairs: pair i runs every workload once on
# each side with seed i, and which side goes first flips from pair to pair, so
# drift in the host lands on both sides alike.  Prints, per workload, the
# head/base ratio of `request_p50_us` in every pair and how many pairs the
# head won, then `sacbench compare`'s verdict table over the ten runs of each
# side (stdout; progress goes to stderr).  Exits non-zero when a row is
# `worse`, an exact count or digest differs, or a run failed.
#
#   scripts/bench-compare.sh [base-rev]        # default: HEAD~1
#
# The base is a `git archive` export, so the repository itself is not touched;
# both sides build into a scratch directory (`mktemp -d`, so TMPDIR chooses
# where) that is removed on exit.  About forty minutes on two cores.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "${1:-HEAD~1}^{commit}")
sacbench=crates/bench/src/bin/sacbench/Cargo.toml
pairs=10
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"

tree() { if [ "$1" = base ]; then echo "$work/base"; else echo "$root"; fi; }
# sb <side> <args…>: the side's sacbench, built against the side's engine into
# the side's own target directory, run with <args…>.
sb() {
    CARGO_TARGET_DIR="$work/$1-target" cargo run --release --offline --quiet \
        --manifest-path "$(tree "$1")/$sacbench" -- "${@:2}"
}
for side in base head; do
    echo "bench-compare: building $side" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$(tree "$side")/$sacbench"
done
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        echo "bench-compare: pair $pair/$pairs, $side (seed $pair)" >&2
        sb "$side" all --runs 1 --seed "$pair" --out "$work/$side-$pair" >/dev/null
    done
done

# One multi-run set per side, in the shape `sacbench all --runs N` writes:
# every metric's values in pair order, attempted/failed per run, and the
# counts, digests and header of the first pair (seed 1), so both sides
# present the same seeds and `compare` checks the exact counts and digests.
python3 - "$work" "$pairs" <<'EOF'
import json, statistics, sys

work, pairs = sys.argv[1], int(sys.argv[2])
runs = {side: [json.load(open(f"{work}/{side}-{pair}/results.trace0.json"))
               for pair in range(1, pairs + 1)]
        for side in ("base", "head")}
for side, sets in runs.items():
    merged = {"header": sets[0]["header"], "trace": 0, "runs": pairs,
              "correct": all(s["correct"] for s in sets), "workloads": {}}
    for name, first in sets[0]["workloads"].items():
        ws = [s["workloads"][name] for s in sets]
        metrics = {}
        for metric, entry in first["metrics"].items():
            values = [v for w in ws for v in w["metrics"][metric]["values"]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"unit": entry["unit"], "median": statistics.median(values),
                               "spread": (q3 - q1) / abs(q2) if q2 else None,
                               "values": values}
        merged["workloads"][name] = {
            "attempted": [a for w in ws for a in w["attempted"]],
            "failed": [f for w in ws for f in w["failed"]],
            "metrics": metrics, "counts": first["counts"], "digests": first["digests"]}
    with open(f"{work}/{side}-results.json", "w") as out:
        json.dump(merged, out, indent=2)

print("request_p50_us, head/base per pair (pair 1 first; base ran first in odd pairs),")
print("then each side's median [first quartile, third quartile] in us")
for name in runs["base"][0]["workloads"]:
    p50 = {side: [s["workloads"][name]["metrics"]["request_p50_us"]["values"][0]
                  for s in runs[side]] for side in runs}
    ratios = [h / b for b, h in zip(p50["base"], p50["head"])]
    won = sum(h < b for b, h in zip(p50["base"], p50["head"]))
    print(f"{name:<18} " + " ".join(f"{r:.3f}" for r in ratios) + f"   head won {won}/{pairs}")
    for side in runs:
        q1, q2, q3 = statistics.quantiles(p50[side], n=4)
        print(f"{'':<18} {side} {statistics.median(p50[side]):.1f} [{q1:.1f}, {q3:.1f}]")
print()
EOF

echo "base $base"
echo "head $(git -C "$root" rev-parse HEAD)$(git -C "$root" diff --quiet HEAD || echo ' + uncommitted changes')"
cd "$root" # compare reads ./BENCHMARK.json for the bounds
sb head compare "$work/base-results.json" "$work/head-results.json"
