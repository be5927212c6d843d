#!/usr/bin/env bash
# fabric smoke: mixed workload reaches steady state with zero leaked
# leases and a reclaim of 0 < cycles ≤ budget — and, because the harness
# runs on one clock, prints the same report at GOMAXPROCS 1 and 2.
source "$(dirname "$0")/smoke-lib.sh"

go build -o flumen-fabric ./cmd/flumen-fabric
one=$(GOMAXPROCS=1 ./flumen-fabric -smoke)
two=$(GOMAXPROCS=2 ./flumen-fabric -smoke)
echo "$one"
if [ "$one" != "$two" ]; then
  echo "fabric smoke: output differs between GOMAXPROCS=1 and GOMAXPROCS=2:" >&2
  echo "$two" >&2
  exit 1
fi
echo "fabric smoke: PASS"
