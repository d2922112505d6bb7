#!/usr/bin/env bash
# Public functions that nothing calls.  Lists every `pub fn` defined in a
# crate's `src/` (above the file's first `#[cfg(test)]`; sacbench and the
# vendored stubs excluded) whose name, as a whole word, appears nowhere but
# in its own definition and in its own file's `#[cfg(test)]` section.  The
# names are searched in every `.rs` file of every crate (their `tests/`
# and sacbench included), of the root `src/`, `tests/` and `examples/`.
#
#   scripts/orphans.sh [rev]        # default: the working tree
#
# Each orphan prints as `kept    <file>  <name>  — <reason>` when it is on
# the list below, else as `ORPHAN  <file>  <name>`; the exit status is 1 if
# there is any ORPHAN line.  Give a new orphan a caller, delete it, or add
# it below with the reason it stays.
set -euo pipefail

# name|reason, one per line: orphans that stay, each for a named consumer.
kept='
ucq_rewritable|the class dispatch of ROADMAP item 15 (Section 5: sticky and linear sets are UCQ-rewritable)
acyclicity_preserving_chase|the class dispatch of ROADMAP item 15 (Proposition 12: Route 3 where the chase keeps acyclicity)
classify_egds|the class dispatch of ROADMAP item 15 for the egd half
is_key|Theorem 23 schema condition (keys over unary and binary schemas), ROADMAP item 15
is_unary|Theorem 23 schema condition (keys over unary and binary schemas), ROADMAP item 15
is_core|the cores property of ROADMAP item 5
from_tgds|Theorem 7 full-tgd class: a full tgd set read as a Datalog program
witness_union|Section 8.1: the UCQ witness of a semantically acyclic union
remove_redundant_disjuncts|Section 8.1: the minimal form a UCQ witness is stated in
with_options|the one way to set a prepared Datalog program'"'"'s options
'

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
if [ -n "${1:-}" ]; then
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git archive "$1" | tar -x -C "$tree"
    cd "$tree"
fi

mapfile -t sources < <(find crates src tests examples -name '*.rs' -not -path '*/target/*' | sort)
awk -v kept="$kept" '
FNR == 1 {
    in_test = 0
    defines = FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/bench\//
}
/^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
{
    def = ""
    if (defines && !in_test && match($0, /^[[:space:]]*pub (const |async |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr($0, RSTART, RLENGTH)
        sub(/.*fn /, "", def)
        defs[++ndefs] = def SUBSEP FILENAME
    }
    n = split($0, words, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
        word = words[i]
        if (word == "") continue
        # The definition itself is not a use.
        if (word == def) { def = ""; continue }
        anywhere[word, FILENAME] = 1
        if (!in_test) outside_tests[word, FILENAME] = 1
        files[FILENAME] = 1
    }
}
END {
    m = split(kept, lines, "\n")
    for (i = 1; i <= m; i++) {
        if (lines[i] == "") continue
        split(lines[i], parts, "|")
        reason[parts[1]] = parts[2]
    }
    bad = 0
    for (d = 1; d <= ndefs; d++) {
        split(defs[d], pair, SUBSEP)
        name = pair[1]; file = pair[2]
        if ((name, file) in outside_tests) continue
        used = 0
        for (other in files)
            if (other != file && (name, other) in anywhere) { used = 1; break }
        if (used) continue
        if (name in reason) {
            printf "kept    %s  %s  — %s\n", file, name, reason[name]
        } else {
            printf "ORPHAN  %s  %s\n", file, name
            bad = 1
        }
    }
    exit bad
}' "${sources[@]}"
