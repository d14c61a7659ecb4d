#!/usr/bin/env bash
# Server smoke: boot a real gss-server on a random port and prove the whole
# networked contract end to end with the gss-client binary:
#
#   * liveness (HEALTH) and byte-level protocol conformance (`wirecheck`: pinned
#     frame layout, typed rejection of garbage and lying length fields),
#   * batch ingest + edge/successor/reachability queries + snapshot + stats on a
#     strict tenant, plus a per-commit-fsync tenant on the same server,
#   * per-tenant token-bucket rate limiting (typed RATE_LIMITED, 0x0005),
#   * SIGKILL the server mid-ingest, restart it on the same data directory, and
#     verify every acknowledged item of the strict tenant recovered (per-shard
#     write-ahead-log replay; stale .lock sidecars from the dead process are
#     reclaimed),
#   * the poisoned-tenant error path: restart with GSS_FAULT_PLAN scoped to one
#     tenant's WAL by path token — ingest into it must answer a typed 0x02xx
#     store-failed error on a connection that stays open, while the other tenant
#     keeps serving.
#
# Usage: ci/server_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p gss-server --bins
SERVER=target/release/gss-server
CLIENT=target/release/gss-client

WORKDIR="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

cat > "$WORKDIR/tenants.conf" <<'EOF'
tenant alpha   token=alpha-secret   durability=strict   shards=2 width=128
tenant beta    token=beta-secret    shards=2 width=128 group_delay_us=0 group_bytes=0
tenant limited token=limited-secret rate=5 burst=5 width=64
tenant poison  token=poison-secret  durability=strict shards=1 width=64
EOF

# Boots $SERVER against $WORKDIR and parses the OS-assigned port from its one
# stdout line (`listening on ADDR`).  Extra env (GSS_FAULT_PLAN) flows through.
start_server() {
  : > "$WORKDIR/server.out"
  "$SERVER" --listen 127.0.0.1:0 --data-dir "$WORKDIR/data" \
    --config "$WORKDIR/tenants.conf" \
    > "$WORKDIR/server.out" 2> "$WORKDIR/server.err" &
  server_pid=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$WORKDIR/server.out" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "server smoke: server died during boot"
      cat "$WORKDIR/server.err"
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "server smoke: server never printed its address"
    exit 1
  fi
  echo "server smoke: up at $ADDR (pid $server_pid)"
}

alpha() { "$CLIENT" --addr "$ADDR" --tenant alpha --token alpha-secret "$@"; }

# ---- Phase 1: liveness, byte-level conformance, ingest/query/snapshot ----
start_server
"$CLIENT" --addr "$ADDR" health
"$CLIENT" --addr "$ADDR" wirecheck

alpha ingest 300 --batch 100 | tail -n 1
alpha verify 300
weight=$(alpha edge 41 42)
[ "$weight" = "41" ] || { echo "edge 41->42: expected 41, got $weight"; exit 1; }
alpha successors 1 | grep -q '\[2\]' || { echo "successors of 1 should be [2]"; exit 1; }
[ "$(alpha reachable 1 301)" = "true" ] || { echo "1 must reach 301"; exit 1; }
[ "$(alpha reachable 301 1)" = "false" ] || { echo "301 must not reach 1"; exit 1; }
alpha snapshot
alpha stats | grep -q 'poisoned false' || { echo "alpha must not be poisoned"; exit 1; }

# A second tenant on the same server, syncing its logs on every commit (zero
# group-commit window).
"$CLIENT" --addr "$ADDR" --tenant beta --token beta-secret ingest 100 | tail -n 1
"$CLIENT" --addr "$ADDR" --tenant beta --token beta-secret verify 100

# Wrong token must be a typed auth failure (0x0003), not a hang or crash.
if "$CLIENT" --addr "$ADDR" --tenant alpha --token wrong edge 1 2 \
    2> "$WORKDIR/auth.err"; then
  echo "server smoke: wrong token was accepted"; exit 1
fi
grep -q '0x0003' "$WORKDIR/auth.err" || { cat "$WORKDIR/auth.err"; exit 1; }
echo "server smoke: phase 1 (protocol + queries + snapshot + auth) OK"

# ---- Phase 2: rate limiting is per-tenant and typed ----
limited() { "$CLIENT" --addr "$ADDR" --tenant limited --token limited-secret "$@"; }
limited ingest 5 > /dev/null              # drains the 5-token burst
if limited ingest 1 2> "$WORKDIR/rate.err"; then
  echo "server smoke: rate limit never kicked in"; exit 1
fi
grep -q '0x0005' "$WORKDIR/rate.err" || { cat "$WORKDIR/rate.err"; exit 1; }
alpha edge 41 42 > /dev/null              # neighbours stay unthrottled
echo "server smoke: phase 2 (rate limiting) OK"

# ---- Phase 3: SIGKILL mid-ingest, restart, strict recovery ----
# A stream far larger than the kill window can drain; the client prints one
# `acked K` line per acknowledged batch, so its log is the recovery floor.
alpha ingest 5000000 --batch 500 > "$WORKDIR/ingest.log" 2>&1 &
client_pid=$!
sleep 1
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
wait "$client_pid" 2>/dev/null && {
  echo "server smoke: ingest finished before the kill — vacuous; raise the count"
  exit 1
}
acked=$(sed -n 's/^acked //p' "$WORKDIR/ingest.log" | tail -n 1)
acked="${acked:-0}"
if [ "$acked" -lt 500 ]; then
  echo "server smoke: only $acked items acked before the kill — kill landed too early"
  exit 1
fi
echo "server smoke: SIGKILLed the server at $acked acknowledged items"

start_server
alpha verify "$acked"
alpha stats | grep -q 'poisoned false' || { echo "alpha poisoned after restart"; exit 1; }
echo "server smoke: phase 3 (kill at $acked acked items, restart, zero loss) OK"

# ---- Phase 4: poisoned-tenant error path, scoped by path token ----
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
# Fail every write to the poison tenant's WAL from the second on: occurrence 1 is
# the WAL magic written at create time, so the store opens and the first ingest
# commit faults.  The path token keeps every other tenant on healthy I/O.
plan=$(seq 2 64 | awk '{ printf "write:eio@%d;", $1 } END { printf "path=poison.gss.shard0.wal" }')
GSS_FAULT_PLAN="$plan" start_server
"$CLIENT" --addr "$ADDR" --tenant poison --token poison-secret poison-check
alpha verify 300                           # the healthy tenant still serves
"$CLIENT" --addr "$ADDR" health
echo "server smoke: phase 4 (poisoned tenant typed error, neighbour healthy) OK"

echo "server smoke: all phases passed"
