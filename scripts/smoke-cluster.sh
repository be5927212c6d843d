#!/usr/bin/env bash
# cluster smoke: failover drill — SIGKILL one backend mid-traffic, verify
# ejection and a clean drain.
source "$(dirname "$0")/smoke-lib.sh"

go build -o flumen-router ./cmd/flumen-router
go build -o flumend ./cmd/flumend

ROUTER=http://127.0.0.1:8100
start_server node-0 http://127.0.0.1:8101 ./flumend -addr 127.0.0.1:8101 -node-id node-0 -ports 16 -block 8 -trace
B0=$SERVER_PID
start_server node-1 http://127.0.0.1:8102 ./flumend -addr 127.0.0.1:8102 -node-id node-1 -ports 16 -block 8 -trace
B1=$SERVER_PID
start_server router "$ROUTER" ./flumen-router -addr 127.0.0.1:8100 \
  -backends http://127.0.0.1:8101,http://127.0.0.1:8102 \
  -probe-interval 100ms -fail-threshold 2 -ejection-time 1s -retries 2 -trace
RT=$SERVER_PID

# Both backends visible and the fleet healthy before the drill.
wait_healthz "$ROUTER"
BODY='{"m":[[1,0],[0,1]],"x":[[1],[2]]}'
for i in $(seq 1 10); do
  curl -fs -X POST "$ROUTER/v1/matmul" -d "$BODY" | grep -q '"c"'
done

# Crash one backend the hard way and keep serving through it.
kill -KILL "$B1"
for i in $(seq 1 20); do
  curl -fs -X POST "$ROUTER/v1/matmul" -d "$BODY" | grep -q '"c"'
done
# The corpse must be ejected, the survivor still serving.
wait_healthz "$ROUTER" '"state":"ejected"'
curl -fs "$ROUTER/metrics" | grep -q 'flumen_router_requests_total'

# Graceful drain: router exits 0 on SIGTERM, then the survivor does.
drain "$RT"
drain "$B0"
echo "cluster smoke: PASS"
