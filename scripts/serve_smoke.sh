#!/usr/bin/env bash
# End-to-end smoke of the serving stack (docs/SERVING.md,
# docs/OPERATIONS.md): starts a real `rps-serve` over a durable data
# dir, drives it with `rps-cube client` round trips — including an
# over-quota batch that must come back as a typed `quota_batch` reject —
# scrapes /metrics off the same port, then asks for a graceful drain and
# asserts the server checkpointed its tenant and exited 0. Finally it
# runs the offline runbook of docs/OPERATIONS.md on the tenant's
# directory: the CLI must read the snapshots and WAL the server wrote.
#
# Usage:
#   scripts/serve_smoke.sh            # build release binaries and run
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p rps-serve -p rps-cli

SMOKE_DIR=target/serve-smoke
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
SERVER_LOG="$SMOKE_DIR/server.log"

target/release/rps-serve \
  --addr 127.0.0.1:0 \
  --workers 2 \
  --tenant smoke=32x32 \
  --data-dir "$SMOKE_DIR/data" \
  --max-batch 4 \
  > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!
cleanup() { kill "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

# The server prints its bound address (port 0 = ephemeral) on startup.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^rps-serve listening on //p' "$SERVER_LOG" | head -n1)
  [[ -n "$ADDR" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server died on startup"; cat "$SERVER_LOG"; exit 1
  fi
  sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "FAIL: server never reported its address"; cat "$SERVER_LOG"; exit 1; }
echo "server up at $ADDR"

CUBE=target/release/rps-cube

# Round trip: point update + in-cap atomic batch, then the range sum
# must see all three deltas.
"$CUBE" client update --addr "$ADDR" --tenant smoke --cell 1,2 --delta 5
"$CUBE" client batch  --addr "$ADDR" --tenant smoke --updates "0,0:+1;3,4:+1"
"$CUBE" client query  --addr "$ADDR" --tenant smoke --region 0,0:31,31 | tee "$SMOKE_DIR/query.out"
grep -q "= 7$" "$SMOKE_DIR/query.out" || { echo "FAIL: expected sum 7"; exit 1; }

# Over the --max-batch 4 cap: must fail with the documented typed
# reject, and must not change the cube.
if "$CUBE" client batch --addr "$ADDR" --tenant smoke \
     --updates "0,0:+1;0,1:+1;0,2:+1;0,3:+1;0,4:+1" 2> "$SMOKE_DIR/reject.err"; then
  echo "FAIL: over-quota batch was accepted"; exit 1
fi
grep -q "quota_batch" "$SMOKE_DIR/reject.err" || { echo "FAIL: expected quota_batch reject"; cat "$SMOKE_DIR/reject.err"; exit 1; }
"$CUBE" client query --addr "$ADDR" --tenant smoke --region 0,0:31,31 | grep -q "= 7$" \
  || { echo "FAIL: rejected batch must be all-or-nothing"; exit 1; }

# Forced checkpoint + stats over the wire.
"$CUBE" client snapshot --addr "$ADDR" --tenant smoke | grep -q "lsn" || { echo "FAIL: snapshot"; exit 1; }
"$CUBE" client stats --addr "$ADDR" --tenant smoke

# Prometheus scrape off the serving port: serve-layer families must be
# present (docs/OBSERVABILITY.md).
"$CUBE" client metrics --addr "$ADDR" > "$SMOKE_DIR/metrics.prom"
for family in rps_serve_requests_total rps_serve_rejects_total rps_serve_conns_total; do
  grep -q "$family" "$SMOKE_DIR/metrics.prom" || { echo "FAIL: $family missing from /metrics"; exit 1; }
done
grep -q 'rps_serve_rejects_total{reason="quota_batch"} 1' "$SMOKE_DIR/metrics.prom" \
  || { echo "FAIL: the quota reject was not counted"; exit 1; }

# Graceful drain: the server must checkpoint the tenant and exit 0.
"$CUBE" client shutdown --addr "$ADDR"
DRAIN_OK=0
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
  sleep 0.1
done
[[ "$DRAIN_OK" == 1 ]] || { echo "FAIL: server did not drain within 10s"; exit 1; }
wait "$SERVER_PID" || { echo "FAIL: server exited nonzero"; cat "$SERVER_LOG"; exit 1; }
trap - EXIT
grep -q "^drained:" "$SERVER_LOG" || { echo "FAIL: no drain report"; cat "$SERVER_LOG"; exit 1; }
grep -q "checkpoint smoke @ lsn" "$SERVER_LOG" || { echo "FAIL: no final checkpoint"; cat "$SERVER_LOG"; exit 1; }

# Offline runbook (docs/OPERATIONS.md) on the drained tenant's directory.
TENANT_DIR="$SMOKE_DIR/data/smoke"
"$CUBE" snapshot verify --dir "$TENANT_DIR/snapshots" || { echo "FAIL: snapshot verify"; exit 1; }
"$CUBE" verify --wal "$TENANT_DIR/wal.log" || { echo "FAIL: verify --wal"; exit 1; }
"$CUBE" recover --dir "$TENANT_DIR/snapshots" --wal "$TENANT_DIR/wal.log" \
  --dims 32x32 --out "$SMOKE_DIR/smoke.rps" || { echo "FAIL: recover"; exit 1; }
"$CUBE" query --file "$SMOKE_DIR/smoke.rps" --range 0,0:31,31 | tee "$SMOKE_DIR/offline.out"
grep -q "= 7 " "$SMOKE_DIR/offline.out" || { echo "FAIL: offline recovery must sum to 7"; exit 1; }

echo "serve smoke: OK (drain report below)"
grep -A2 "^drained:" "$SERVER_LOG"
