#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload:
#
#   ci/bench-pairs.sh <parent-rev> <workload> <pairs> [first-seed]
#
# Builds the benchmark twice: at <parent-rev> (exported with `git archive`
# into target/bench-pairs/parent-src, so no worktree is registered in .git)
# and at the working tree, each into its own target directory under
# target/bench-pairs/. Pair i runs seed first-seed+i (default first-seed 1)
# on both binaries, parent first in even pairs and change first in odd ones,
# prints each run's result line, appends it with `--out` to
# target/bench-pairs/<workload>-{parent,change}.jsonl (emptied first), and
# keeps each run's full output under target/bench-pairs/logs/. Finally it runs
# `spitz-benchmark compare` on the two files. If any run exited nonzero (its
# .jsonl line is then missing, so the comparison is over unequal sets of
# runs) or reported an incorrect result or failed operations, the script
# names those runs after the comparison and exits 1.
#
# TRACE (default 0; 1 for the per-layer metrics) is passed through. Runs
# start from the repository root, where the binary reads BENCHMARK.json and
# takes its run length from the manifest's run_seconds. Nothing under
# benchmark/ is written.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [first-seed]" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3" first_seed="${4:-1}"
trace="${TRACE:-0}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/target/bench-pairs"
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
    cargo build --release --offline --quiet --manifest-path "$1" --target-dir "$2"
}
build "$src/benchmark/Cargo.toml" "$work/parent"
build "$root/benchmark/Cargo.toml" "$work/change"
declare -A bin=(
    [parent]="$work/parent/release/spitz-benchmark"
    [change]="$work/change/release/spitz-benchmark"
)

out_parent="$work/$workload-parent.jsonl" out_change="$work/$workload-change.jsonl"
: > "$out_parent"
: > "$out_change"
declare -A out=([parent]="$out_parent" [change]="$out_change")

echo "parent ${commit:0:12} vs working tree: $workload, $pairs pairs, trace $trace"
failed=()
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        log="$work/logs/$workload-s$seed-$side-$i.log"
        status=0
        "${bin[$side]}" --workload "$workload" --seed "$seed" \
            --trace "$trace" --out "${out[$side]}" > "$log" 2>&1 || status=$?
        line="$(tail -n 1 "$log")"
        echo "pair $i seed $seed $side (exit $status): $line"
        if ((status != 0)); then
            failed+=("pair $i seed $seed $side: exit $status, log $log")
        elif [[ $line != *'"correct": true'* || $line != *'"failed": 0,'* ]]; then
            failed+=("pair $i seed $seed $side: incorrect or failed operations, log $log")
        fi
    done
done

compare_status=0
"${bin[change]}" compare --base "$out_parent" --new "$out_change" || compare_status=$?
if ((${#failed[@]} > 0)); then
    echo "${#failed[@]} run(s) failed:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
exit "$compare_status"
