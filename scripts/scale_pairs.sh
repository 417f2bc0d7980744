#!/usr/bin/env bash
# Parent-vs-change pairs at a scale the benchmark does not run: N ABBA
# pairs of `airstat report --resume`, the paper's analysis from disk.
# Builds the airstat release binary in both checkouts, then one store
# per side (`report --seed 1 --threads <threads> --scale <scale>
# --store-dir D`) in a temporary directory that is removed on exit, and
# runs the pairs (the side that goes first alternates, so drift on the
# host lands on both alike). Each run is the only child of a fresh
# python3, which reports its wall time and its peak RSS from
# getrusage(RUSAGE_CHILDREN), so the clock stays out of the product.
# Every resume's stdout is cmp-checked against its own side's build,
# and the change's build against the parent's; a mismatch exits 1.
#
# Prints each build's wall time and peak RSS (one run each, not a
# pair), every run's values, then abba.sh's table: per metric both
# medians, the parent's IQR, the gap, the median per-pair ratio, pairs
# won and lost, and the verdict
#   better / worse   the gap is wider than the parent's IQR
#   unresolved       it is not
# with OVER where the change is worse than the parent by more than the
# bound BENCHMARK.json gives rep_ms (wall_s) or peak_rss_mb. Edits
# nothing under bench/.
#
#   scripts/scale_pairs.sh <parent-checkout> <change-checkout> <scale> [pairs] [threads]
#
# pairs and threads default to 10 and 2. A store at --scale 0.2 is about
# 353 MB per side; TMPDIR picks where they go.
set -euo pipefail

(($# >= 3)) || {
    echo "usage: scripts/scale_pairs.sh <parent-checkout> <change-checkout> <scale> [pairs] [threads]" >&2
    exit 2
}
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
scale=$3 pairs=${4:-10} threads=${5:-2}

for checkout in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$checkout/Cargo.toml" --bin airstat
done

work=$(mktemp -d "${TMPDIR:-/tmp}/scale_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

python3 - "$parent" "$change" "$scale" "$pairs" "$threads" "$work" <<'PY'
import filecmp, json, statistics, subprocess, sys

roots = {"parent": sys.argv[1], "change": sys.argv[2]}
scale, pairs, threads, work = sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6]
spec = {m["name"]: m for m in json.load(open(f"{roots['change']}/BENCHMARK.json"))["end_to_end"]}
metrics = [("wall_s", "s", spec["rep_ms"]["bound"]),
           ("peak_rss_mb", "MB", spec["peak_rss_mb"]["bound"])]

# Runs one child with stdout to a file; prints its wall time (s) and peak RSS (MB).
MEASURE = r"""
import resource, subprocess, sys, time
with open(sys.argv[1], "wb") as out:
    start = time.perf_counter()
    subprocess.run(sys.argv[2:], stdout=out, stderr=subprocess.DEVNULL, check=True)
    wall = time.perf_counter() - start
print(wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""

def report(side, out, *extra):
    cmd = [f"{roots[side]}/target/release/airstat", "report", "--seed", "1",
           "--threads", threads, "--scale", scale, "--store-dir", f"{work}/{side}", *extra]
    done = subprocess.run([sys.executable, "-c", MEASURE, out, *cmd],
                          check=True, capture_output=True, text=True)
    return dict(zip((m[0] for m in metrics), map(float, done.stdout.split())))

def same(a, b):
    if not filecmp.cmp(a, b, shallow=False):
        sys.exit(f"stdout differs: {a} {b}")

for side in roots:
    build = report(side, f"{work}/{side}.build")
    print(f"build@{scale} {side} wall_s {build['wall_s']:.3f} peak_rss_mb {build['peak_rss_mb']:.1f}")
same(f"{work}/parent.build", f"{work}/change.build")

runs = {"parent": {}, "change": {}}
for pair in range(pairs):
    for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
        got = report(side, f"{work}/{side}.resume", "--resume")
        same(f"{work}/{side}.build", f"{work}/{side}.resume")
        for name, value in got.items():
            runs[side].setdefault(name, []).append(value)

label = f"resume@{scale}"
rows = []
for name, unit, bound in metrics:
    p, c = runs["parent"][name], runs["change"][name]
    print(f"{label}/{name} parent {p}\n{label}/{name} change {c}")
    mp, mc = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (mp, mp, mp)
    won = sum(a > b for a, b in zip(p, c))
    lost = sum(a < b for a, b in zip(p, c))
    ratio = statistics.median(b / a for a, b in zip(p, c))
    gap = mp - mc  # positive: the change is better (both metrics are lower-better)
    verdict = "unresolved" if abs(gap) <= q3 - q1 else "better" if gap > 0 else "worse"
    if -gap > bound * mp:
        verdict += " OVER"
    rows.append(f"{label:18s} {name:12s} parent {mp:12.4f}  change {mc:12.4f} {unit:4s} "
                f"parent IQR {q3 - q1:10.4f}  gap {-gap / mp:+.4f}  pair ratio {ratio:.4f}  "
                f"won {won}/{pairs} lost {lost}/{pairs}  {verdict}")
print()
print("pair ratio: the median over pairs of change / parent, each pair run back to back")
print("\n".join(rows))
PY
