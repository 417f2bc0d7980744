#!/usr/bin/env bash
# The one command: builds the benchmark, then runs the four workloads,
# each in its own process, and prints every metric by name with its unit
# and sample count. Exits non-zero when any rep failed a correctness check.
#
#   bench/run.sh                         end-to-end metrics (no tracing anywhere)
#   bench/run.sh --trace                 per-layer metrics (the traced pass)
#   bench/run.sh --seed 7 --seconds 15   another input seed / run length
set -euo pipefail
cd "$(dirname "$0")/.."

trace=0 seed=1 seconds=15
while (($#)); do
    case "$1" in
    --trace) trace=1 ;;
    --seed) seed=$2 && shift ;;
    --seconds) seconds=$2 && shift ;;
    *) echo "usage: bench/run.sh [--trace] [--seed N] [--seconds N]" >&2 && exit 2 ;;
    esac
    shift
done

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin=${CARGO_TARGET_DIR:-bench/target}/release/airstat-e2e-bench

status=0
for workload in campaign_report poll_pressure store_ingest_live resume_query; do
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
    # Everything but the machine-readable last line; on the traced pass,
    # not the zeros of layers this workload never enters.
    if ((trace)); then
        sed '$d' <<<"$out" | grep -v ' = 0\.0000 ' || true
    else
        sed '$d' <<<"$out"
    fi
    tail -n 1 <<<"$out" | grep -q '"correct": true' || {
        echo "$workload: failed_share > 0" >&2
        status=1
    }
done
exit $status
