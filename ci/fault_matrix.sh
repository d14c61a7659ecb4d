#!/usr/bin/env bash
# Fault matrix: prove the fail-stop storage contract under randomized I/O fault
# schedules — EIO, ENOSPC, torn writes, failed fsync, and transient EINTR/short I/O.
#
# Each schedule builds a randomized `GSS_FAULT_PLAN` spec, runs `crash_harness
# fault-ingest` with the plan armed, then `fault-verify` with the plan cleared.
# The ingest half checks the poisoned-store contract at the scene of the fault
# (writes rejected, reads still served, coherent DurabilityReport) and records the
# report in a `<progress>.fault` sidecar; the verify half reopens the store and
# holds the report to its word:
#   * no false acks: every durable-claimed item is recovered
#     (`recovered >= durable_items`), and an unpoisoned run recovers everything
#     it acknowledged, and
#   * an unopenable store is acceptable only when the report already confessed
#     (`poisoned` with zero durable items), and
#   * zero panics anywhere: hard faults fail-stop through typed errors, transient
#     faults (EINTR, short reads) are absorbed by bounded retry and the run
#     completes like any healthy ingest.
#
# Usage: ci/fault_matrix.sh [schedules]   (default 30)
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEDULES="${1:-30}"
ITEMS=30000

# release-witness = release + debug-assertions, same profile as the crash matrix:
# the injected-fault runs double as a lock-order-witness integration pass.
cargo build --profile release-witness -p gss-experiments --bin crash_harness
BIN=target/release-witness/crash_harness

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# Deterministic-but-varied schedules; rerun with SEED=<n> (or the legacy
# FAULT_MATRIX_SEED) to reproduce a failing run exactly.
SEED="${SEED:-${FAULT_MATRIX_SEED:-$RANDOM}}"
echo "fault matrix: $SCHEDULES randomized schedules, seed $SEED"

# Failing schedules park their progress/fault sidecars and ingest log (plus the
# seed) here so CI can upload them as artifacts.
ARTIFACTS="target/matrix-artifacts"
save_artifacts() {
  mkdir -p "$ARTIFACTS"
  echo "$SEED" > "$ARTIFACTS/fault-matrix-seed"
  for f in "$@"; do
    [ -e "$f" ] && cp "$f" "$ARTIFACTS/" || true
  done
}

failures=0
fired=0
hard_stops=0
transient_runs=0
for i in $(seq 1 "$SCHEDULES"); do
  sketch="$WORKDIR/fault-$i.gss"
  progress="$WORKDIR/progress-$i"
  ingest_log="$WORKDIR/ingest-$i.log"
  # Schedule mix: 40% hard write faults (EIO/ENOSPC/torn), 20% failed fsync,
  # 10% failed truncate, 20% transient-only, 10% transient-then-hard combos.
  # Occurrence ranges track real call frequencies: writes are per-item-ish,
  # fsyncs per commit/drain, set_len only at creation/checkpoint.
  spec=$(awk -v s="$SEED" -v i="$i" 'BEGIN {
    srand(s * 131 + i * 7919); rand();
    c = rand();
    if (c < 0.40) {
      k = rand();
      kind = (k < 0.34) ? "eio" : (k < 0.67) ? "enospc" : "torn";
      printf "write:%s@%d", kind, 1 + int(rand() * 500);
    } else if (c < 0.60) {
      op = (rand() < 0.7) ? "sync_data" : "sync_all";
      kind = (rand() < 0.5) ? "eio" : "enospc";
      occ = (op == "sync_all") ? 1 : 1 + int(rand() * 18);
      printf "%s:%s@%d", op, kind, occ;
    } else if (c < 0.70) {
      kind = (rand() < 0.5) ? "enospc" : "eio";
      printf "set_len:%s@%d", kind, 1 + int(rand() * 3);
    } else if (c < 0.90) {
      if (rand() < 0.5) { op = "read"; kind = (rand() < 0.5) ? "eintr" : "short"; }
      else              { op = "write"; kind = "eintr"; }
      printf "%s:%s@%d", op, kind, 1 + int(rand() * 40);
    } else {
      printf "write:eintr@%d;write:eio@%d", 1 + int(rand() * 30), 50 + int(rand() * 400);
    }
  }')
  echo "--- schedule #$i: GSS_FAULT_PLAN=\"$spec\""
  if ! GSS_FAULT_PLAN="$spec" "$BIN" fault-ingest "$sketch" "$progress" "$ITEMS" \
      >"$ingest_log" 2>&1; then
    echo "--- schedule #$i: FAILED (ingest half broke the fail-stop contract)"
    cat "$ingest_log"
    failures=$((failures + 1))
    save_artifacts "$progress" "$progress.fault" "$ingest_log"
    continue
  fi
  sed 's/^/    /' "$ingest_log"
  if grep -q "fail-stop" "$ingest_log"; then
    fired=$((fired + 1))
    hard_stops=$((hard_stops + 1))
  elif ! grep -q "injected_faults 0" "$ingest_log"; then
    fired=$((fired + 1))
    transient_runs=$((transient_runs + 1))
  fi
  # Verify with the plan cleared: recovery itself runs against healthy I/O.
  if "$BIN" fault-verify "$sketch" "$progress"; then
    echo "--- schedule #$i: OK"
  else
    echo "--- schedule #$i: FAILED"
    failures=$((failures + 1))
    save_artifacts "$progress" "$progress.fault" "$ingest_log"
  fi
done

echo "fault matrix: $fired/$SCHEDULES schedules fired" \
  "($hard_stops hard fail-stops, $transient_runs transient-absorbed runs)"
# Vacuous-pass guard: a matrix where most schedules never inject anything proves
# nothing — the occurrence ranges above are tuned so the large majority fire.
if [ $((fired * 3)) -lt $((SCHEDULES * 2)) ]; then
  echo "fault matrix: vacuous — fewer than 2/3 of schedules injected a fault"
  echo "    (seed $SEED); retune the occurrence ranges for this ITEMS setting"
  exit 1
fi
if [ "$failures" -ne 0 ]; then
  echo "fault matrix: $failures failure(s) — reproduce with SEED=$SEED;" \
    "sidecars saved under $ARTIFACTS/"
  exit 1
fi
echo "fault matrix: all $SCHEDULES schedules survived without panics or false acks"
