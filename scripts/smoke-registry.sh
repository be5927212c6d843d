#!/usr/bin/env bash
# registry smoke: register, restart on the same store, by-name ≡ inline
# bitwise across the restart, zero-compile warm start, and a second remove
# answering 404 unknown_model.
source "$(dirname "$0")/smoke-lib.sh"

go build -o flumend ./cmd/flumend

BASE=http://127.0.0.1:8110
STORE=$(mktemp -d)
python3 - <<'EOF'
import json, random
random.seed(5)
m = [[random.uniform(-1, 1) for _ in range(16)] for _ in range(16)]
x = [[random.uniform(-1, 1) for _ in range(4)] for _ in range(16)]
json.dump({"name": "ci-w", "version": "v1", "kind": "matmul", "m": m}, open("/tmp/spec.json", "w"))
json.dump({"m": m, "x": x}, open("/tmp/inline.json", "w"))
json.dump({"model": "ci-w@v1", "x": x}, open("/tmp/byname.json", "w"))
EOF

start_server flumend-1 "$BASE" ./flumend -addr 127.0.0.1:8110 -store "$STORE" -ports 16 -block 8 -trace
PID=$SERVER_PID
wait_healthz "$BASE"

curl -fs -X POST "$BASE/v1/models" -d @/tmp/spec.json >/dev/null
curl -fs "$BASE/v1/models" | grep -q '"name":"ci-w"'
wait_healthz "$BASE" '"prewarm_pending":0'

curl -fs -X POST "$BASE/v1/matmul" -d @/tmp/inline.json > /tmp/inline_resp.json
curl -fs -X POST "$BASE/v1/matmul" -d @/tmp/byname.json > /tmp/byname_resp.json
# Unknown models must answer a structured 404 with a stable code.
curl -s -X POST "$BASE/v1/matmul" -d '{"model":"ghost","x":[[1],[2]]}' | grep -q '"code":"unknown_model"'

# Restart the daemon on the same store: the manifest reload + prewarm must
# serve the first by-name request with zero cold compiles.
drain "$PID"
start_server flumend-2 "$BASE" ./flumend -addr 127.0.0.1:8110 -store "$STORE" -ports 16 -block 8 -trace
PID=$SERVER_PID
wait_healthz "$BASE" '"registry_models":1'
wait_healthz "$BASE" '"prewarm_pending":0'

# grep reads the whole exposition: -q would close the pipe early and fail
# curl (exit 23) under pipefail.
curl -fs "$BASE/metrics" | grep 'flumend_registry_prewarmed_models 1' >/dev/null
MISS_BEFORE=$(curl -fs "$BASE/metrics" | grep '^flumend_cache_misses_total' | awk '{print $2}')
curl -fs -X POST "$BASE/v1/matmul" -d @/tmp/byname.json > /tmp/warm_resp.json
MISS_AFTER=$(curl -fs "$BASE/metrics" | grep '^flumend_cache_misses_total' | awk '{print $2}')
test "$MISS_BEFORE" = "$MISS_AFTER"   # zero compiles: prewarm hit

python3 - <<'EOF'
import json, struct
want = json.load(open("/tmp/inline_resp.json"))["c"]
for path in ("/tmp/byname_resp.json", "/tmp/warm_resp.json"):
    got = json.load(open(path))["c"]
    assert len(got) == len(want), path
    for rw, rg in zip(want, got):
        for vw, vg in zip(rw, rg):
            assert struct.pack("<d", vw) == struct.pack("<d", vg), (path, vw, vg)
print("by-name responses bitwise-equal to inline, across the restart")
EOF

curl -fs -X DELETE "$BASE/v1/models/ci-w@v1" >/dev/null
# Already gone: a structured 404 with a stable code.
CODE=$(curl -s -o /tmp/rm_resp.json -w '%{http_code}' -X DELETE "$BASE/v1/models/ci-w@v1")
test "$CODE" = 404
grep -q '"code":"unknown_model"' /tmp/rm_resp.json

drain "$PID"
echo "registry smoke: PASS"
