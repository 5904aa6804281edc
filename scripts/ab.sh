#!/usr/bin/env bash
# Alternating parent/change pairs of one fdbench workload, with the verdict
# of the choosing-metrics guide (section 8) per end-to-end metric.
#
#   scripts/ab.sh <parent-rev> <workload> [pairs=10] [seed=42] [run.sh args…]
#
# The parent is checked out into a git worktree under .bench_build/ (ignored)
# and stays there between runs as its build cache; the change is the working
# tree. Both sides are driven through their own fdbench/run.sh — this script
# calls the benchmark, it does not edit it — for BENCHMARK.json's
# `run_seconds`, on the same seed, the side that goes first alternating from
# pair to pair. Extra arguments (e.g. --smoke) go to both sides' run.sh.
#
# Per metric it prints both medians, both quartile pairs, wins/pairs and:
#   gain        change better in >= 9/10 of the pairs (ties count for
#               neither) and the medians apart by more than the parent's IQR
#   regression  change's median worse than the parent's by more than the
#               metric's BENCHMARK.json bound
#   unresolved  either side's IQR wider than that bound: the runs cannot tell
#   within      none of the above
# and exits 1 if any metric regressed (judged from ten pairs up), the change
# failed a larger share of its operations, or one of its runs failed a check.
#
# Remove the cache with: git worktree remove --force .bench_build/ab-parent
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,7p' "$0" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-42}
shift $(($# < 4 ? $# : 4))
extra=("$@")

parent=.bench_build/ab-parent
commit=$(git rev-parse --verify "$rev^{commit}")
if [ -e "$parent/.git" ]; then
  git -C "$parent" checkout --quiet --detach "$commit"
else
  mkdir -p .bench_build
  git worktree add --quiet --detach "$parent" "$commit"
fi

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # <side> <dir> [args…]: append the result object (run.sh's last line)
  local side=$1 dir=$2
  shift 2
  bash "$dir/fdbench/run.sh" --workload "$workload" --seed "$seed" "$@" "${extra[@]}" |
    tail -n 1 >>"$out/$side"
}

echo "ab: parent $(git rev-parse --short "$commit") vs working tree, $workload," \
  "seed $seed, $pairs pairs x $seconds s ${extra[*]}"
# One untimed run per side builds it and warms the page cache.
run warm-parent "$parent" --seconds 1
run warm-change . --seconds 1
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" --seconds "$seconds"
    run change . --seconds "$seconds"
  else
    run change . --seconds "$seconds"
    run parent "$parent" --seconds "$seconds"
  fi
  echo "ab: pair $i/$pairs done"
done

python3 - "$out/parent" "$out/change" <<'PY'
import json, sys

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

parent, change = ([json.loads(line) for line in open(path)] for path in sys.argv[1:3])
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
pairs = len(parent)
failed = False

print(f"{'metric':<18}{'parent median [q1, q3]':>40}{'change median [q1, q3]':>40}"
      f"{'ratio':>8}{'wins':>7}  verdict")
for name, m in spec.items():
    a = [r["metrics"][name]["value"] for r in parent if name in r["metrics"]]
    b = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
    if len(a) != pairs or len(b) != pairs:
        continue
    sign = 1.0 if m["better"] == "higher" else -1.0
    (qa1, ma, qa3), (qb1, mb, qb3) = ([quantile(xs, q) for q in (0.25, 0.5, 0.75)] for xs in (a, b))
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    gap = sign * (mb - ma)
    scale = abs(ma) or 1.0
    if wins >= 0.9 * pairs and gap > qa3 - qa1:
        verdict = "gain"
    elif -gap > m["bound"] * scale:
        verdict, failed = "REGRESSION", True
    elif max(qa3 - qa1, qb3 - qb1) > m["bound"] * scale:
        verdict = "unresolved"
    else:
        verdict = "within"
    fmt = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}, {q3:.6g}]"
    print(f"{name:<18}{fmt(ma, qa1, qa3):>40}{fmt(mb, qb1, qb3):>40}"
          f"{mb / ma if ma else float('nan'):>8.3f}{f'{wins}/{pairs - ties}':>7}  {verdict}")

share = lambda runs: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
incorrect = sum(not r["correct"] for r in change)
print(f"failed operations: parent {share(parent):.3%}, change {share(change):.3%};"
      f" change runs failing their checks: {incorrect}/{pairs}")
if pairs < 10:
    print(f"only {pairs} pair(s): a verdict needs at least ten, none is enforced")
    failed = False
sys.exit(1 if failed or incorrect or share(change) > share(parent) else 0)
PY
