#!/usr/bin/env bash
# The benchmark's one command. Builds `simbench`, then:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass over one workload (the form BENCHMARK.json's `command`
#       names); the last line of output is the result object
#   benchmark/run.sh [--seed N] [--runs K] [--smoke]
#       the whole suite: every workload, end-to-end pass (K times, for
#       BENCHMARK.json's run_seconds each) then traced pass, each in a
#       child process; writes benchmark/results/<rev>-<seed>.json and exits
#       non-zero if any output check fails; --smoke times one iteration
#   benchmark/run.sh compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR when set, else to the repository's
# own target/ (shared with the root workspace, whose manifest and lock
# file are not touched).
set -euo pipefail

here=$(dirname "$0")
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/simbench"

case "${1:-}" in
--workload | compare) exec "$bin" "$@" ;;
esac

seed=42
args=("$@")
for i in "${!args[@]}"; do
    if [[ "${args[$i]}" == --seed && -n "${args[$((i + 1))]:-}" ]]; then
        seed="${args[$((i + 1))]}"
    fi
done
rev=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$bin" suite "$@" --rev "$rev" --out "$here/results/$rev-$seed.json"
