#!/usr/bin/env bash
# Alternating parent/change runs of one paper-figure binary:
#
#   ci/figure-pairs.sh <parent-rev> <bin> <runs> [args...]
#
# Builds `spitz-bench` twice: at <parent-rev> (exported with `git archive`
# into target/figure-pairs/parent-src, so no worktree is registered in .git)
# and at the working tree, each into its own target directory under
# target/figure-pairs/. Pair i runs <bin> [args...] on both builds, parent
# first in even pairs and change first in odd ones, and keeps each run's
# full output in target/figure-pairs/logs/<bin>-<i>-<side>.md. Each run's
# exit status and wall time are printed as it ends; if any run exited
# nonzero, the script names those runs and exits 1. Compare the tables in
# the logs side by side: the byte rows (proof sizes, stored bytes) are
# deterministic, and the throughput rows compare only within one
# invocation, pair by pair.
#
# <bin> is one of crates/bench/src/bin (fig1_storage, fig6_basic_ops,
# fig7_range, fig8_nonintrusive, ablations). Runs start from the repository
# root, so a relative path among [args...] (e.g. `ablations --proof-sizes
# ci/proof-size-budget.txt`) names the working tree's file for both sides.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 <parent-rev> <bin> <runs> [args...]" >&2
    exit 2
fi
rev="$1" name="$2" runs="$3"
shift 3

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/target/figure-pairs"
mkdir -p "$work/logs"

commit="$(git rev-parse --verify "$rev^{commit}")"
src="$work/parent-src"
if [[ "$(cat "$work/parent-src.commit" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "$src" "$work/parent-src.commit"
    mkdir -p "$src"
    git archive "$commit" | tar -x -C "$src"
    echo "$commit" > "$work/parent-src.commit"
fi

build() { # <manifest> <target-dir>
    cargo build --release --offline --quiet -p spitz-bench --manifest-path "$1" --target-dir "$2"
}
build "$src/Cargo.toml" "$work/parent"
build "$root/Cargo.toml" "$work/change"
declare -A bin=(
    [parent]="$work/parent/release/$name"
    [change]="$work/change/release/$name"
)

echo "parent ${commit:0:12} vs working tree: $name${*:+ $*}, $runs pairs"
failed=()
for ((i = 0; i < runs; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        log="$work/logs/$name-$i-$side.md"
        status=0
        start=$EPOCHREALTIME
        "${bin[$side]}" "$@" > "$log" 2>&1 || status=$?
        seconds=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }')
        echo "pair $i $side (exit $status, $seconds s): $log"
        if ((status != 0)); then
            failed+=("pair $i $side: exit $status, log $log")
        fi
    done
done

if ((${#failed[@]} > 0)); then
    echo "${#failed[@]} run(s) failed:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
