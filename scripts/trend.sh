#!/usr/bin/env bash
# The benchmark's trajectory: chain the recorded parent/change pairs of
# bench_history/ into one running ratio per row.
#
#   scripts/trend.sh [DIR]       # default DIR: bench_history
#
# Reads DIR/pr*.json (files scripts/pair.sh wrote) in PR-number order.
# Each PR number is one step: its record is prN.json; an A/A set (a file
# with "aa": true, such as pr42-aa.json) is no step, and a further re-run
# of the same PR (prN-<name>.json) is listed as skipped. For each workload
# and each end-to-end row it prints, after every step, the running product
# of the recorded median ratios (change / base) since the first file, and
# beside it the A/A spreads compounded over the same steps: the product of
# (1 + spread) - 1, the band the product may stray from 1 by noise alone.
# A step's spread is the row's recorded `aa_spread` when the pair file
# holds one (pair.sh --spread), else that of the latest A/A set at or
# before its PR number; `?` marks a step with neither. A row a step did
# not record leaves the product where it was. Ratios are raw: above 1 is
# better for a "higher" row, worse for a "lower" one. Reads only; needs
# python3 (standard library only).
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${1:-bench_history}
[[ -d "$dir" ]] || { echo "trend.sh: no directory $dir" >&2; exit 2; }
python3 - "$dir" <<'EOF'
import glob, json, os, re, sys

suite = json.load(open("BENCHMARK.json"))
rows = [m["name"] for m in suite["end_to_end"]]
better = {m["name"]: m["better"] for m in suite["end_to_end"]}
workloads = [w["name"] for w in suite["workloads"]]

def number(path):
    m = re.fullmatch(r"pr(\d+)(-.*)?\.json", os.path.basename(path))
    return (int(m.group(1)), m.group(2) or "") if m else None

files = sorted((n, p) for p in glob.glob(os.path.join(sys.argv[1], "pr*.json"))
               if (n := number(p)) is not None)
steps, aa_sets, skipped = [], [], []
for (pr, suffix), path in files:
    record = json.load(open(path))
    if record.get("aa"):
        aa_sets.append((pr, record))
    elif suffix:
        skipped.append(os.path.basename(path))
    else:
        steps.append((pr, record))
if not steps:
    sys.exit("trend.sh: no prN.json record in " + sys.argv[1])

def spread(pr, record, workload, row):
    recorded = record["workloads"].get(workload, {}).get("rows", {}).get(row, {})
    if recorded.get("aa_spread") is not None:
        return recorded["aa_spread"]
    earlier = [r for n, r in aa_sets if n <= pr]
    if not earlier:
        return None
    aa_row = earlier[-1]["workloads"].get(workload, {}).get("rows", {}).get(row, {})
    ratio = aa_row.get("ratio")
    return None if ratio is None else abs(ratio - 1)

print("steps: " + " ".join(f"pr{pr}" for pr, _ in steps)
      + ("  (skipped: " + ", ".join(skipped) + ")" if skipped else ""))
print("A/A sets: " + (" ".join(f"pr{pr}" for pr, _ in aa_sets) or "none"))
for workload in workloads:
    print(f"\n{workload}")
    print(f"  {'row':24} {'better':6} " + " ".join(f"{'pr' + str(pr):>17}" for pr, _ in steps))
    for row in rows:
        product, band, unknown, cells = 1.0, 1.0, False, []
        for pr, record in steps:
            recorded = record["workloads"].get(workload, {}).get("rows", {}).get(row)
            if recorded is None or recorded.get("ratio") is None:
                cells.append(f"{'-':>17}")
                continue
            product *= recorded["ratio"]
            s = spread(pr, record, workload, row)
            if s is None:
                unknown = True
            else:
                band *= 1 + s
            tail = "?" if unknown else f"{100 * (band - 1):.1f}%"
            cells.append(f"x{product:.3f} ±{tail:>6}".rjust(17))
        print(f"  {row:24} {better[row]:6} " + " ".join(cells))
EOF
