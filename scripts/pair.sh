#!/usr/bin/env bash
# Alternating pairs of benchmark runs: a base revision against the working
# tree.
#
#   scripts/pair.sh <rev> [--pairs N] [--workload W] [--aa] [--seed S0]
#                         [--out FILE]
#
# The base side is <rev>, exported with `git archive`; the change side is
# the working tree as it stands (tracked and untracked files that git does
# not ignore). With --aa the change side is <rev> too: the spread of two
# identical builds, which a verdict should beat. Both sides are copied
# under target/pair/ and each builds into its own CARGO_TARGET_DIR there.
#
# Pair i runs both sides on seed S0+i (default S0 = 1), base first on even
# i and change first on odd i: whichever side runs first tends to win by a
# few percent. A run is benchmark/run.sh's one-run form (--workload W --seed
# N --trace 0, at the benchmark's own run length); its last stdout line is
# the result. Without --workload every workload of BENCHMARK.json is paired.
#
# The pairs are judged twice:
#   * against the bounds: each side's runs are written in the suite's
#     result shape (target/pair/base.json, change.json) and judged by
#     `benchmark/run.sh compare` — each metric's bound, the `unresolved`
#     rule for a spread wider than the bound, and failed operations;
#   * for a gain: per pair, whether the change won or lost, and `gain` when
#     it won at least 9 in 10 pairs and its median beats the base's by more
#     than the base's interquartile range.
# FILE (default bench_history/pair.json) holds both, with each side's runs,
# medians and quartiles. Nothing else runs while a pair does: the client
# and the servers are pinned one CPU each. Needs bash, git and python3
# (standard library only).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    echo usage: >&2
    sed -n '5,6p' "$0" | sed 's/^#//' >&2
    exit 2
}

rev=""
pairs=5
workloads=()
aa=0
seed0=1
out="bench_history/pair.json"
while (($#)); do
    case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --aa) aa=1; shift ;;
    --seed) seed0=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    -h | --help) usage ;;
    -*) echo "pair.sh: unknown option $1" >&2; usage ;;
    *) [[ -z "$rev" ]] || usage; rev=$1; shift ;;
    esac
done
[[ -n "$rev" ]] || usage
base_rev=$(git rev-parse --verify "$rev^{commit}")
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

work="$root/target/pair"
rm -rf "$work/base" "$work/change" "$work/runs"
mkdir -p "$work/base" "$work/runs"
git archive "$base_rev" | tar -x -C "$work/base"
if ((aa)); then
    change_dir="$work/base"
    change_target="$work/base-target"
else
    mkdir -p "$work/change"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do
            [[ -e "$f" ]] && cp --parents -- "$f" "$work/change/"
        done
    change_dir="$work/change"
    change_target="$work/change-target"
fi
declare -A dir=([base]="$work/base" [change]="$change_dir")
declare -A target=([base]="$work/base-target" [change]="$change_target")

# One run of one side; its result line goes to runs/<workload>-<seed>-<side>.json.
run_side() {
    local side=$1 workload=$2 seed=$3
    local log="$work/runs/$workload-$seed-$side.log"
    echo "  $side  $workload seed $seed" >&2
    (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --trace 0) >"$log" 2>&1 ||
        echo "  ($side $workload seed $seed exited non-zero; see $log)" >&2
    tail -n 1 "$log" >"$work/runs/$workload-$seed-$side.json"
}

echo "==> building base ($base_rev) and change" >&2
for side in base change; do
    (cd "${dir[$side]}" && CARGO_TARGET_DIR="${target[$side]}" bash benchmark/run.sh --help) \
        >/dev/null 2>"$work/build-$side.log" ||
        { echo "pair.sh: $side does not build; see $work/build-$side.log" >&2; exit 1; }
done

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    echo "==> pair $((i + 1)) of $pairs (seed $seed)" >&2
    for workload in "${workloads[@]}"; do
        if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do run_side "$side" "$workload" "$seed"; done
    done
done

# Each side's runs in the suite's result shape: the pairs both sides
# finished, in pair order.
python3 - "$work" "$pairs" "$seed0" "${workloads[@]}" <<'EOF'
import json, sys

work, pairs, seed0 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sets = {"base": {}, "change": {}}
for workload in sys.argv[4:]:
    whole = []
    for seed in range(seed0, seed0 + pairs):
        try:
            whole.append(tuple(json.load(open(f"{work}/runs/{workload}-{seed}-{side}.json"))
                               for side in ("base", "change")))
        except (OSError, ValueError):
            print(f"  pair on seed {seed} of {workload} is incomplete; left out", file=sys.stderr)
    for k, side in enumerate(("base", "change")):
        runs = [pair[k] for pair in whole]
        names = runs[0]["metrics"] if runs else {}
        sets[side][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: {"values": [r["metrics"][m]["value"] for r in runs]}
                           for m in names},
        }
for side, workloads in sets.items():
    with open(f"{work}/{side}.json", "w") as f:
        json.dump({"workloads": workloads}, f)
EOF

mkdir -p "$(dirname "$out")"
status=0
(cd "$work/base" && CARGO_TARGET_DIR="$work/base-target" bash benchmark/run.sh compare \
    "$work/base.json" "$work/change.json") >"$work/compare.txt" 2>&1 || status=$?
cat "$work/compare.txt"
((status <= 1)) || { echo "pair.sh: run.sh compare failed" >&2; exit 1; }

python3 - "$work" "$out" "$base_rev" "$aa" "$pairs" "$seed0" "$status" <<'EOF'
import json, statistics, sys

work, out, base_rev, aa, pairs, seed0, status = sys.argv[1:8]
pairs, seed0 = int(pairs), int(seed0)
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
sets = {side: json.load(open(f"{work}/{side}.json"))["workloads"] for side in ("base", "change")}

# `run.sh compare`'s rows: workload, metric, A and B medians, change, spread,
# bound, verdict.
bounds = {}
for line in open(f"{work}/compare.txt"):
    cols = line.split()
    if len(cols) == 8 and cols[1] in better:
        bounds[(cols[0], cols[1])] = {"change": cols[4], "spread": cols[5],
                                      "verdict": cols[7]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


report = {
    "base": base_rev,
    "change": base_rev if aa == "1" else "working tree",
    "aa": aa == "1",
    "pairs": pairs,
    "seeds": [seed0, seed0 + pairs - 1],
    "order": "base first on even pairs, change first on odd",
    "within_bounds": status == "0",
    "workloads": {},
}
for workload, b in sets["base"].items():
    c = sets["change"][workload]
    rows = {}
    for name in [m for m in better if m in b["end_to_end"]]:
        base = b["end_to_end"][name]["values"]
        change = c["end_to_end"][name]["values"]
        if not base or all(x == 0 for x in base + change):
            continue
        higher = better[name] == "higher"
        won = sum((y > x) if higher else (y < x) for x, y in zip(base, change))
        lost = sum((y < x) if higher else (y > x) for x, y in zip(base, change))
        bm, cm = statistics.median(base), statistics.median(change)
        bq, cq = quartiles(base), quartiles(change)
        beats_by = (cm - bm) if higher else (bm - cm)
        rows[name] = {
            "better": better[name],
            "base": {"median": bm, "q1": bq[0], "q3": bq[1], "runs": base},
            "change": {"median": cm, "q1": cq[0], "q3": cq[1], "runs": change},
            "ratio": cm / bm if bm else None,
            "won": won,
            "lost": lost,
            "of": len(base),
            "gain": won >= -(-9 * len(base) // 10) and beats_by > bq[1] - bq[0],
            "bound": bounds.get((workload, name)),
        }
    report["workloads"][workload] = {
        "failed": {"base": b["failed"], "change": c["failed"]},
        "rows": rows,
    }

with open(out, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print()
for workload, w in report["workloads"].items():
    print(f"{workload}: pairs won by the change, and gains (>= 9 in 10, beyond the base's IQR)")
    for name, r in w["rows"].items():
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"  {name:24} ratio {ratio}  won {r['won']}/{r['of']}  lost {r['lost']}"
              f"{'  GAIN' if r['gain'] else ''}")
print(f"bounds: {'no row worse' if status == '0' else 'a row is worse, or failed more ops'}")
print(f"wrote {out}")
EOF
