#!/usr/bin/env bash
# Parent-vs-change pairs: the table every docs/perf-log entry carries.
# Builds bench/ in both checkouts, then for each workload runs N pairs
# (parent and change back to back, ABBA: the side that goes first
# alternates, so drift on the host lands on both alike), each run from
# its own checkout root at --seed <seed> --seconds 15 --trace 0 (a claim
# has to hold on a seed not used while the change was written, so the
# table is run once more with one). Prints, per workload
# and end-to-end metric, both medians, the distance between the quartiles
# of the parent's runs, the change's gap to the parent, the median
# per-pair ratio (change / parent within each pair: drift on the host
# lands on both runs of a pair alike, so this reads a gap that the
# parent's own spread across pairs can hide; below 1 the change read
# lower, whichever way the metric is better) and the pairs it won (ties
# count for neither), and calls the row
#   better / worse   the gap is wider than the parent's IQR
#   unresolved       it is not
# and adds OVER where the change's median is worse than the parent's by
# more than the metric's bound in BENCHMARK.json. Every run's values are
# printed above the table. Exits non-zero when any rep failed a
# correctness check. Edits nothing under bench/.
#
#   scripts/abba.sh <parent-checkout> <change-checkout> [pairs] [seed] [workload...]
#
# pairs and seed default to 10 and 1; the workloads named after them
# (any of BENCHMARK.json's) are run in the order given, all four when
# none is named.
#
# A/A layout check. A workload whose rep runs no changed code can still
# read "worse": the change moves where unchanged functions land in the
# binary, and the checkout's absolute path is compiled into the bench
# binary's panic locations, so a path of another length shifts code by
# itself. Give both checkouts paths of equal length, and before calling
# such a row the change's doing, run the parent against a clone of
# itself at a path of that same length, for that workload alone:
#
#   git clone -q <parent-checkout> <clone-path-of-equal-length>
#   scripts/abba.sh <parent-checkout> <clone-path-of-equal-length> 10 1 <workload>
#
# A gap there is layout noise, not the change. A clean A/A does not
# clear the change, though: the change itself moves unchanged code. So
# also compare, in the two bench/target/release/airstat-e2e-bench
# binaries, the functions that workload runs: the same names and sizes
# (nm -S -C) and the same instructions once addresses are masked
# (objdump -d --no-show-raw-insn) mean the gap is placement.
set -euo pipefail

(($# >= 2)) || {
    echo "usage: scripts/abba.sh <parent-checkout> <change-checkout> [pairs] [seed] [workload...]" >&2
    exit 2
}
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
pairs=${3:-10} seed=${4:-1}
shift $(($# < 4 ? $# : 4))

for checkout in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$checkout/bench/Cargo.toml"
done

exec python3 - "$parent" "$change" "$pairs" "$seed" "$@" <<'PY'
import json, statistics, subprocess, sys

roots = {"parent": sys.argv[1], "change": sys.argv[2]}
pairs, seed = int(sys.argv[3]), str(int(sys.argv[4]))
spec = json.load(open(f"{roots['change']}/BENCHMARK.json"))
known = [w["name"] for w in spec["workloads"]]
workloads = sys.argv[5:] or known
unknown = [w for w in workloads if w not in known]
if unknown:
    sys.exit(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}")
status = 0
rows = []
for workload in workloads:
    runs = {"parent": {}, "change": {}}
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            last = subprocess.run(
                ["bench/target/release/airstat-e2e-bench", "--workload", workload,
                 "--seed", seed, "--seconds", "15", "--trace", "0"],
                cwd=roots[side], check=True, capture_output=True, text=True,
            ).stdout.splitlines()[-1]
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} ({side}): {result['failed']} of {result['attempted']} reps failed",
                      file=sys.stderr)
                status = 1
            for name, m in result["metrics"].items():
                runs[side].setdefault(name, []).append(m["value"])
    for m in spec["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        p, c = runs["parent"][name], runs["change"][name]
        print(f"{workload}/{name} parent {p}\n{workload}/{name} change {c}")
        mp, mc = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (mp, mp, mp)
        won = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        lost = sum(sign * (a - b) < 0 for a, b in zip(p, c))
        ratios = [b / a for a, b in zip(p, c) if a]
        ratio = statistics.median(ratios) if ratios else float("nan")
        gap = sign * (mp - mc)  # positive: the change is better
        verdict = "unresolved" if abs(gap) <= q3 - q1 else "better" if gap > 0 else "worse"
        if -gap > m["bound"] * mp:
            verdict += " OVER"
        rows.append(f"{workload:18s} {name:12s} parent {mp:12.4f}  change {mc:12.4f} {m['unit']:4s} "
                    f"parent IQR {q3 - q1:10.4f}  gap {-sign * gap / mp:+.4f}  pair ratio {ratio:.4f}  "
                    f"won {won}/{pairs} lost {lost}/{pairs}  {verdict}")
print()
print("pair ratio: the median over pairs of change / parent, each pair run back to back")
print("\n".join(rows))
sys.exit(status)
PY
