#!/usr/bin/env bash
# Regenerate BASELINES.md from the five paper-figure binaries (~5 min):
#
#   ci/paper-figures.sh > BASELINES.md
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --quiet -p spitz-bench
cat <<'HEADER'
# Paper-figure shapes

Output of `ci/paper-figures.sh`: the five binaries of `crates/bench` that
reproduce the paper's Figures 1, 6, 7 and 8 and its ablations, on their
default laptop-sized workloads. Read the *shapes* (which series is above
which, and by what order of magnitude); the throughput numbers move with
the machine and are not baselines. Performance claims are measured by
`benchmark/` (see `benchmark/README.md`); the proof byte sizes below are
deterministic and gated in CI by `ci/proof-size-budget.txt`.
HEADER
for bin in fig1_storage fig6_basic_ops fig7_range fig8_nonintrusive ablations; do
    printf '\n## `%s`\n\n' "$bin"
    "${CARGO_TARGET_DIR:-target}/release/$bin"
done
