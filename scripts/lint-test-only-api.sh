#!/usr/bin/env bash
# Fails when production code outside cmd/, examples/ and benchmark/ declares
# an exported func or method whose name no other non-test code mentions:
# production API that only tests call. Such a function moves into a
# _test.go file of its package, goes with the tests that only exercise it,
# or earns a line in the keep list below with the reason it stays.
#
# The census is by name, with comments and string, raw-string and rune
# literals stripped: a name counts as used when it appears in non-test Go
# code besides its declaration. It is
# approximate in both directions (a common method name hides a dead
# method), and cheap enough to run on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

# "package-dir Name" followed by the reason the name stays.
keep=(
  ". EnableNoise|ROADMAP item 4: the accuracy envelope sweeps noise"
  ". DisableNoise|ROADMAP item 4: the accuracy envelope sweeps noise"
  ". InjectFaults|ROADMAP item 4's drift sweep; serve's health tests (another package) inject faults"
  "internal/energy ElecMACsPJ|ROADMAP 1C: fabric_mixed reports pJ per stolen MAC beside it"
  "internal/energy FlumenBatchTimeNS|ROADMAP 1C: the photonic time beside ElecMACsPJ's energy"
  "internal/mat BlockGrid|workload's blur tests (another package) use it"
  "internal/mat BlockMatVec|Eq. 3's reference: photonic's and workload's tests (other packages) hold block products to it"
  "internal/mat Col|photonic's tests (another package) read plan outputs column by column"
  "internal/mat EqualApprox|tests in other packages use it"
  "internal/mat RandomDense|tests in other packages use it"
  "internal/mat VecMaxAbsDiff|tests in other packages use it"
  "internal/noc SetLookahead|ROADMAP item 16: TestMZIMMeetsHeadOfLineBound sets the window"
  "internal/photonic SetDriftSigma|ROADMAP item 4: the accuracy envelope sweeps drift"
  "internal/photonic Forward|the root package's mesh benchmarks (bench_test.go) propagate through it"
  "internal/photonic Program|reference path: tests hold CompileBlock+Apply to it"
  "internal/photonic NewPartition|reference path: the device partition Partition.Apply programs; ROADMAP 19"
  "internal/photonic EqualizeLoss|Sec 3.1.2 loss equalisation: ROADMAP 19's device-path tests set the attenuator column with it"
  "internal/photonic RoutePermutationRange|communication beside compute partitions (Sec 3.3): ROADMAP 19's incremental router starts from it"
  "internal/photonic Depth|the root package's mesh benchmarks and DESIGN's depth-N argument"
  "internal/trace MarshalJSON|encoding/json calls it"
  "internal/workload ToeplitzOperator|the root integration test (another package) runs blur through it"
  "internal/workload ToeplitzWindow|the root integration test (another package) runs blur through it"
  "internal/workload RandomPlane|the root integration test (another package) draws JPEG inputs"
  "internal/workload RandomObject|the root integration test (another package) draws rotation inputs"
  "internal/workload FabricMACs|the root invariants test (another package) conserves work with it"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-files '*.go' | grep -v '_test\.go$' | while read -r f; do
  mkdir -p "$tmp/$(dirname "$f")"
  # One left-to-right pass, so that a comment marker inside a literal and a
  # quote inside a comment are each read as what they are.
  perl -0777 -pe 's{/\*.*?\*/|//[^\n]*|"(?:[^"\\\n]|\\.)*"|`[^`]*`|\x27(?:[^\x27\\\n]|\\.)*\x27}{ }gs' "$f" >"$tmp/$f"
done

declare -A used
kept() {
  local entry
  for entry in "${keep[@]}"; do
    if [ "${entry%%|*}" = "$1" ]; then
      used[$1]=1
      return 0
    fi
  done
  return 1
}

hits=0
while read -r f; do
  while read -r name; do
    if [ "$(cd "$tmp" && grep -rhow --include='*.go' -- "$name" . | wc -l)" -le 1 ] &&
      ! kept "$(dirname "$f") $name"; then
      echo "$f: $name is exported, but only tests call it" >&2
      hits=1
    fi
  done < <(grep -oE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*' "$tmp/$f" | sed -E 's/^func (\([^)]*\) )?//' | sort -u)
done < <(cd "$tmp" && find . -name '*.go' | sed 's|^\./||' | grep -vE '^(cmd|examples|benchmark)/' | sort)

for entry in "${keep[@]}"; do
  if [ -z "${used[${entry%%|*}]:-}" ]; then
    echo "keep list names ${entry%%|*}, which non-test code now calls or which is gone: drop the entry" >&2
    hits=1
  fi
done
if ((hits)); then
  echo "Move each into a _test.go file of its package, delete it with the tests that only exercise it, or add it to the keep list in $0 with its reason." >&2
fi
exit "$hits"
