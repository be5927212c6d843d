#!/usr/bin/env bash
# trace smoke: a served drill asserting the wall-stage sums, the header
# opt-in, and the Prometheus exposition. The tracing unit tests run in the
# test job's `go test -race ./...`.
source "$(dirname "$0")/smoke-lib.sh"

go build -o flumend ./cmd/flumend

BASE=http://127.0.0.1:8120
start_server flumend "$BASE" ./flumend -addr 127.0.0.1:8120 -trace -trace-slow 1ms
PID=$SERVER_PID
wait_healthz "$BASE"

BODY='{"m":[[1,0],[0,1]],"x":[[1],[2]]}'
for i in $(seq 1 5); do
  curl -fs -X POST "$BASE/v1/matmul" -d "$BODY" >/dev/null
done
# Header opt-in returns the breakdown in the body.
curl -fs -X POST -H 'X-Flumen-Trace: 1' "$BASE/v1/matmul" -d "$BODY" \
  | grep -q '"trace"'
# Ring: every completed trace's wall stages must sum to >=95% of its
# end-to-end total (the property that makes the breakdown trustworthy).
curl -fs "$BASE/debug/requests" > /tmp/requests.json
python3 - <<'EOF'
import json
recs = json.load(open("/tmp/requests.json"))
assert len(recs) >= 6, f"expected >=6 traced requests, got {len(recs)}"
for r in recs:
    assert r["status"] == 200, r
    assert r["stages"].get("exec", 0) > 0, r
    assert r["wall_stage_sum_ms"] >= 0.95 * r["total_ms"], r
print(f"{len(recs)} traces, all wall-stage sums >=95% of totals")
EOF
# Exposition: per-stage histograms present and populated.
curl -fs "$BASE/metrics" > /tmp/metrics.txt
grep -q 'flumend_stage_seconds_count{stage="exec"} 6' /tmp/metrics.txt
grep -q 'flumend_stage_seconds_bucket{stage="queue_wait"' /tmp/metrics.txt
grep -q 'flumend_request_outcomes_total{endpoint="matmul",outcome="ok"} 6' /tmp/metrics.txt

drain "$PID"
echo "trace smoke: PASS"
