#!/usr/bin/env bash
# Mutant gate for the group-commit pipeline's model check:
#
#   ci/pipeline-mutants.sh
#
# Exports the working tree (tracked files, uncommitted edits included, via
# `git stash create` and `git archive`) into target/pipeline-mutants/src.
# First it runs `every_interleaving_keeps_the_pipeline_invariants` there
# unmutated, which must pass. Then, for each patch under
# ci/pipeline-mutants/, it applies the patch to that copy, runs only that
# test (debug, with a timeout) and reverses the patch. Each patch breaks one
# rule the pipeline's step functions keep, so the test must fail on every
# one. The script exits 1 if a mutant survives, and also if a patch no longer
# applies: an edit to crates/ledger/src/pipeline.rs then has to refresh its
# mutants. The working tree is never written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
work="$root/target/pipeline-mutants"
src="$work/src"
test_name=every_interleaving_keeps_the_pipeline_invariants
limit=300 # seconds per run of the model check

rm -rf "$src"
mkdir -p "$src"
rev="$(git stash create)" # empty on a clean tree
git archive "${rev:-HEAD}" | tar -x -C "$src"

run() { # -> the test's exit status
    (cd "$src" && timeout "$limit" cargo test --offline --quiet -p spitz-ledger --lib \
        --target-dir "$work/target" "$test_name" >"$work/last.log" 2>&1)
}

if ! run; then
    echo "the unmutated model check fails; see $work/last.log" >&2
    exit 1
fi
echo "unmutated: passes"

failed=()
for patch in "$root"/ci/pipeline-mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    if ! (cd "$src" && git apply --check "$patch" 2>/dev/null); then
        echo "$name: STALE (no longer applies)"
        failed+=("$name")
        continue
    fi
    (cd "$src" && git apply "$patch")
    status=0
    run || status=$?
    (cd "$src" && git apply -R "$patch")
    case "$status" in
        0) echo "$name: SURVIVED"; failed+=("$name") ;;
        124) echo "$name: killed (timed out after ${limit}s)" ;;
        *) echo "$name: killed: $(grep -m1 -A1 "panicked at" "$work/last.log" | tail -1)" ;;
    esac
done

if ((${#failed[@]})); then
    echo "mutants surviving or stale: ${failed[*]}" >&2
    exit 1
fi
