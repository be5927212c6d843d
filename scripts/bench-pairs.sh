#!/usr/bin/env bash
# Measures this working tree against a parent commit in alternating pairs
# of standing-benchmark runs, and prints every run beside the spread:
#
#   bash scripts/bench-pairs.sh PARENT_REF PAIRS [WORKLOADS]
#
# PARENT_REF is any commit git resolves (HEAD^, a sha, a branch); PAIRS is
# the number of pairs; WORKLOADS is an optional comma-separated list passed
# to -workload (default: every workload in BENCHMARK.json). Pair S runs both
# sides with seed S, the parent first when S is odd and the change first
# when it is even, so drift in the machine's speed falls on both sides.
#
# The parent runs from a plain checkout of PARENT_REF in a temporary
# directory, built from its own sources by its own benchmark/run.sh. Every
# results file, run log and comparison is kept in $BENCH_PAIRS_OUT (default
# bench-pairs/): parent-S.json, change-S.json, *-S.log and compare-S.txt.
# Each pair is compared with `go run ./benchmark -compare`, and the script
# exits 1 if any comparison does (a metric worse than its bound, a run not
# correct, a digest that differs). It then prints one row per workload and
# end-to-end metric: the value at each seed on both sides, both medians,
# the parent's interquartile distance, how many pairs the change won, and
# the metric's bound.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || ! [[ $2 =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: bash scripts/bench-pairs.sh PARENT_REF PAIRS [WORKLOADS]" >&2
  exit 2
fi
parent_ref=$1 pairs=$2 workloads=${3:-}
sha=$(git rev-parse --verify "$parent_ref^{commit}")
out=${BENCH_PAIRS_OUT:-bench-pairs}
mkdir -p "$out"
out=$(cd "$out" && pwd)

tree=$(mktemp -d)
trap 'chmod -R u+w "$tree" && rm -rf "$tree"' EXIT
git archive "$sha" | tar -x -C "$tree"

args=()
[ -n "$workloads" ] && args=(-workload "$workloads")

# run SIDE SEED runs one side of a pair, its log kept beside its results.
run() {
  local side=$1 seed=$2 dir=. commit
  commit=$(git rev-parse HEAD)
  if [ "$side" = parent ]; then
    dir=$tree commit=$sha
  fi
  echo "# seed $seed: $side" >&2
  if ! BENCH_COMMIT=$commit bash "$dir/benchmark/run.sh" -seed "$seed" "${args[@]}" \
    -out "$out/$side-$seed.json" >"$out/$side-$seed.log" 2>&1; then
    tail -n 20 "$out/$side-$seed.log" >&2
    echo "bench-pairs: the $side run at seed $seed failed (log: $out/$side-$seed.log)" >&2
    exit 1
  fi
}

status=0
for seed in $(seq 1 "$pairs"); do
  if ((seed % 2)); then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
  if ! go run ./benchmark -compare "$out/parent-$seed.json" "$out/change-$seed.json" >"$out/compare-$seed.txt"; then
    status=1
  fi
  grep '^REGRESSION' "$out/compare-$seed.txt" | sed "s/^/seed $seed: /" >&2 || true
done

parent_files=() change_files=()
for seed in $(seq 1 "$pairs"); do
  parent_files+=("$out/parent-$seed.json")
  change_files+=("$out/change-$seed.json")
done
jq -rn \
  --slurpfile m BENCHMARK.json \
  --slurpfile P <(jq -s . "${parent_files[@]}") \
  --slurpfile C <(jq -s . "${change_files[@]}") '
  # q: the p-quantile of a list, interpolating between order statistics.
  def q(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $i
    | $s[$i] + ($h - $i) * ($s[[$i + 1, ($s | length) - 1] | min] - $s[$i]);
  # fmt: four significant digits.
  def fmt: if . == 0 then "0" else
    pow(10; 3 - (fabs | log10 | floor)) as $f | (. * $f | round) / $f | tostring end;
  "| workload | metric | parent by seed | change by seed | median parent → change | parent IQR | change better | bound |",
  "|---|---|---|---|---|---|---|---|",
  ($m[0] as $man | $man.workloads[].name as $w | $man.end_to_end[] as $d
   | [$P[0][] | .workloads[$w].end_to_end[$d.name].value] as $p
   | [$C[0][] | .workloads[$w].end_to_end[$d.name].value] as $c
   | select(($p | all(. != null)) and ($c | all(. != null)))
   | ([range($p | length) | select(if $d.better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] | length) as $won
   | "| \($w) | \($d.name) | \($p | map(fmt) | join(" ")) | \($c | map(fmt) | join(" ")) | \($p | q(0.5) | fmt) → \($c | q(0.5) | fmt) | \(($p | q(0.75)) - ($p | q(0.25)) | fmt) | \($won)/\($p | length) | \($d.bound * 100 | fmt)% |")'
exit "$status"
