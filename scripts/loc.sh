#!/usr/bin/env bash
# "Least code" as a number.  Counts the Rust lines of every crate's `src/`
# (sacbench and the vendored stubs excluded) that are neither blank, nor a
# `//` comment, nor at or below the file's first `#[cfg(test)]`, and prints
# one table per file and one per crate.  Simplicity PRs quote these numbers.
#
#   scripts/loc.sh [rev]        # default: the working tree
#
# With a revision the files are read from git, so parent and change can be
# counted from one checkout: `scripts/loc.sh HEAD~1`.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
rev=${1:-}

files() {
    if [ -n "$rev" ]; then git ls-tree -r --name-only "$rev"; else git ls-files -co --exclude-standard; fi |
        grep -E '^(src|crates/[^/]+/src)/.*\.rs$' | grep -v '^crates/bench/' | sort
}
show() {
    if [ -n "$rev" ]; then git show "$rev:$1"; else cat "$1"; fi
}

counts=$(files | while read -r file; do
    show "$file" | awk -v file="$file" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%7d  %s\n", n, file }'
done)

echo "per file"
echo "$counts"
echo
echo "per crate"
echo "$counts" | awk '
    {
        crate = $2; sub(/\/src\/.*/, "", crate); if (crate ~ /^src\//) crate = "."
        lines[crate] += $1; total += $1
    }
    END {
        for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
