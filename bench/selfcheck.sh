#!/usr/bin/env bash
# The A/A check: two sets of N runs of every workload on the same build,
# interleaved ABBA so drift on the host lands on both sets alike. Run i of
# either set uses seed i, so both sets see the same inputs. Prints, per
# workload and end-to-end metric, the relative gap between the set medians
# and the spread (inter-quartile range over median) of all 2N runs, beside
# the bound BENCHMARK.json sets. Exits non-zero on a gap over its bound, a
# spread over its bound (except setup_s, which is held to the gap only),
# or a failed correctness check.
#
#   bench/selfcheck.sh [N]      N runs per set, default 5
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin=${CARGO_TARGET_DIR:-bench/target}/release/airstat-e2e-bench

exec python3 - "$bin" "${1:-5}" <<'PY'
import json, statistics, subprocess, sys

binary, n = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
status = 0
for workload in (w["name"] for w in spec["workloads"]):
    sets = {"A": {}, "B": {}}
    for i in range(2 * n):
        which = "ABBA"[i % 4]
        seed = 1 + len(next(iter(sets[which].values()), []))
        last = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()[-1]
        result = json.loads(last)
        if not result["correct"]:
            print(f"{workload}: {result['failed']} of {result['attempted']} reps failed", file=sys.stderr)
            status = 1
        for name, m in result["metrics"].items():
            sets[which].setdefault(name, []).append(m["value"])
    for name, m in metrics.items():
        a, b = statistics.median(sets["A"][name]), statistics.median(sets["B"][name])
        both = sets["A"][name] + sets["B"][name]
        q1, _, q3 = statistics.quantiles(both, n=4)
        gap, spread = abs(a - b) / a, (q3 - q1) / statistics.median(both)
        over = gap > m["bound"] or (name != "setup_s" and spread > m["bound"])
        status |= over
        print(f"{workload:18s} {name:12s} A {a:12.4f}  B {b:12.4f} {m['unit']:4s} "
              f"gap {gap:.4f}  spread {spread:.4f}  bound {m['bound']:.2f}  {'OVER' if over else 'ok'}")
sys.exit(status)
PY
