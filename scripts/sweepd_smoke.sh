#!/usr/bin/env bash
# sweepd_smoke.sh — end-to-end smoke test of the sweep daemon.
#
# Stands up a real sweepd process with external worker processes that
# share NO filesystem with the daemon (each seals its results in memory
# and uploads them in Complete; its private scratch directory holds only
# its checkpoint store), submits sweeps through `vccsweep -server`, and
# asserts that:
#
#   1. kill -9'ing a worker mid-sweep loses nothing: the rendered CSV is
#      byte-identical to the same sweep run locally (lease reclamation
#      lost nothing, double-counted nothing, and every result crossed the
#      wire through the daemon's content check), no worker wrote a
#      journal entry of its own, and the daemon derived as many of the
#      sweep's cells from a sibling as the local run did (both plan with
#      sim.Keyer.Plan);
#   2. a second, windowed sweep (-window, warm-state checkpoints on: each
#      worker keeps a private ckpt store in its scratch directory) is
#      also byte-identical to its local run;
#   3. a mid-sweep network partition (SIGSTOP a worker past the lease TTL,
#      then SIGCONT) plus another kill -9 still converges byte-identical —
#      the frozen worker abandons its reclaimed cell on thaw and rejoins;
#   4. a -width 3 sweep is byte-identical daemon vs local: the spec's
#      width reaches both the daemon's cell keys and the workers'
#      regenerated configs, so a width-threading bug on either side would
#      fail the content check or change the rendered numbers;
#   5. SIGTERM drains the daemon gracefully: it verifies the journal and
#      exits 0, leaving every admitted result in one journal record file
#      (exactly one *.rec or *.seg, no per-cell file), and no worker's
#      ckpt/ store holds a per-snapshot *.snap file (snapshots are records
#      of the same log);
#   6. a second daemon with in-process worker slots (-workers 2) on a
#      fresh journal serves `figures -fig all -csv -server` byte-identical
#      to the local `figures -fig all -csv`: the figures' union grid,
#      variant points included, travels to the daemon as exactly one sweep
#      of explicit points (Figure 11(b) folds the daemon's cell events
#      into levels exactly as the local runner folds its stream), the
#      daemon's journal then holds every distinct cell of the local run,
#      the client simulates none, and nothing is replayed. Both sides
#      derive cells from a sibling of equal engine input (IRAW at 600 mV
#      and above is timed as baseline): the local run must print at least
#      one such line, and the daemon's sweep must report exactly as many
#      derived cells in its /api/v1/sweeps/sweep-1 status (the daemon
#      seals a derived cell from its leased twin's admitted upload, the
#      local run from its stitched result; the byte diff holds the two to
#      the same numbers);
#   7. the same daemon renders the vccsweep CSV identical to the local
#      sweep: its slots upload from memory through the same content check
#      as external workers (<jnl>/local holds no journal entry), and it
#      too drains with a verified journal.
#
# Usage: scripts/sweepd_smoke.sh [insts] [seeds]
set -euo pipefail
cd "$(dirname "$0")/.."

INSTS="${1:-20000}"
SEEDS="${2:-1}"
MODES="baseline,iraw"

WORK="$(mktemp -d)"
DAEMON_PID=""
WORKER_PIDS=()
cleanup() {
  for p in "${WORKER_PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# has_entries DIR succeeds when DIR holds a journal entry in any layout:
# a record file (*.rec), an older segment (*.seg) or per-key file (*.cell).
has_entries() {
  compgen -G "$1/*.rec" >/dev/null || compgen -G "$1/*.seg" >/dev/null ||
    compgen -G "$1/*.cell" >/dev/null
}

echo "sweepd_smoke: building" >&2
go build -o "$WORK/sweepd" ./cmd/sweepd
go build -o "$WORK/vccsweep" ./cmd/vccsweep
go build -o "$WORK/figures" ./cmd/figures

echo "sweepd_smoke: local baseline sweep and every figure" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" -csv -progress \
  > "$WORK/local.csv" 2> "$WORK/local.progress"
# -progress prints one stderr line per simulated cell.
"$WORK/figures" -fig all -insts "$INSTS" -seeds "$SEEDS" -csv -progress \
  > "$WORK/local_figs.csv" 2> "$WORK/local_figs.progress"

echo "sweepd_smoke: starting daemon (external workers only)" >&2
# -addr :0 picks a free port; parse it from the serving line. Short lease
# TTL so the murdered worker's cell requeues quickly. The output file is
# created first: the background job opens it only once it starts, and the
# polling below may read it before then.
: > "$WORK/daemon.out"
"$WORK/sweepd" -addr 127.0.0.1:0 -journal "$WORK/jnl" -workers -1 \
  -lease-ttl 2s > "$WORK/daemon.out" 2> "$WORK/daemon.err" &
DAEMON_PID=$!

ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^sweepd: serving on //p' "$WORK/daemon.out" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "sweepd_smoke: FAIL daemon died at startup" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "sweepd_smoke: FAIL no serving line" >&2; exit 1; }
echo "sweepd_smoke: daemon on $ADDR (pid $DAEMON_PID)" >&2

# Each worker gets an explicitly private scratch directory — disjoint
# from the daemon's and from each other's, as if on different machines.
spawn_worker() { # spawn_worker <index>
  local i="$1"
  mkdir -p "$WORK/w$i-jnl"
  "$WORK/sweepd" -worker -join "$ADDR" -name "smoke-$i" -poll 20ms \
    -worker-journal "$WORK/w$i-jnl" \
    2> "$WORK/worker$i.err" &
  WORKER_PIDS+=($!)
  disown $! # keep bash's job reaper from announcing the kill -9
}
spawn_worker 1
spawn_worker 2

echo "sweepd_smoke: submitting sweep through vccsweep -server" >&2
"$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -csv > "$WORK/daemon.csv" 2> "$WORK/client.err" &
CLIENT_PID=$!

# Give the sweep a moment to get cells in flight, then murder one worker.
sleep 1
echo "sweepd_smoke: kill -9 worker ${WORKER_PIDS[0]}" >&2
kill -9 "${WORKER_PIDS[0]}"

if ! wait "$CLIENT_PID"; then
  echo "sweepd_smoke: FAIL client sweep errored" >&2
  cat "$WORK/client.err" >&2
  exit 1
fi

if ! diff -u "$WORK/local.csv" "$WORK/daemon.csv"; then
  echo "sweepd_smoke: FAIL daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: daemon CSV identical to local CSV" >&2
# Both users of the one dedup plan (sim.Keyer.Plan) agree: the daemon
# derived as many of this sweep's cells as the local run did.
LOCAL_DERIVED="$(grep -c '\[derived from ' "$WORK/local.progress" || true)"
STATUS="$(curl -sf "http://$ADDR/api/v1/sweeps/sweep-1")"
SWEEP_DERIVED="$(printf '%s' "$STATUS" | sed -n 's/.*"derived":\([0-9]*\).*/\1/p')"
if [ "$LOCAL_DERIVED" -lt 1 ] || [ "${SWEEP_DERIVED:-0}" -ne "$LOCAL_DERIVED" ]; then
  echo "sweepd_smoke: FAIL the daemon derived ${SWEEP_DERIVED:-0} cells of sweep-1, the local sweep $LOCAL_DERIVED (want equal, at least 1)" >&2
  exit 1
fi
echo "sweepd_smoke: daemon and local sweep each derived $LOCAL_DERIVED cells" >&2

# Uploads come from memory: neither the dead nor the live worker wrote a
# journal entry into its scratch directory.
for i in 1 2; do
  if has_entries "$WORK/w$i-jnl"; then
    echo "sweepd_smoke: FAIL worker $i wrote journal entries to its scratch directory" >&2
    exit 1
  fi
done

# Windowed sweep: sample windows shard each trace, functional warm-up runs
# through the warm-state checkpoint store (local: the runner's in-memory store;
# daemon workers: each keeps a private ckpt/ in its scratch directory).
# Both paths must stitch the same rows.
WINDOW=5000
echo "sweepd_smoke: local windowed sweep (-window $WINDOW)" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -window "$WINDOW" -csv > "$WORK/local_win.csv"
echo "sweepd_smoke: windowed sweep through vccsweep -server" >&2
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -window "$WINDOW" -csv > "$WORK/daemon_win.csv" \
  2> "$WORK/client_win.err"; then
  echo "sweepd_smoke: FAIL windowed client sweep errored" >&2
  cat "$WORK/client_win.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_win.csv" "$WORK/daemon_win.csv"; then
  echo "sweepd_smoke: FAIL windowed daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: windowed daemon CSV identical to local CSV" >&2

# Partition scenario: fresh cells (a different window size keys a new
# grid), two fresh workers. One is SIGSTOPped past the lease TTL — a
# network partition as the daemon sees it: heartbeats stop, the lease is
# reclaimed, the cell requeues. The other is kill -9'ed outright. The
# frozen worker thaws, abandons its reclaimed cell and rejoins; the sweep
# must still converge byte-identical to local.
WINDOW2=4000
echo "sweepd_smoke: local sweep for the partition scenario (-window $WINDOW2)" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -window "$WINDOW2" -csv > "$WORK/local_part.csv"

# Retire the scenario-1 survivor so the partition scenario's fate rests
# entirely on the frozen worker rejoining: once its partner is murdered,
# nobody else can finish the sweep.
kill -9 "${WORKER_PIDS[1]}" 2>/dev/null || true

spawn_worker 3
spawn_worker 4
FROZEN_PID="${WORKER_PIDS[2]}"
DOOMED_PID="${WORKER_PIDS[3]}"

echo "sweepd_smoke: partition sweep through vccsweep -server" >&2
"$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -window "$WINDOW2" -csv > "$WORK/daemon_part.csv" \
  2> "$WORK/client_part.err" &
CLIENT_PID=$!

sleep 1
echo "sweepd_smoke: SIGSTOP worker $FROZEN_PID (partition), kill -9 worker $DOOMED_PID" >&2
kill -STOP "$FROZEN_PID"
kill -9 "$DOOMED_PID"
sleep 3 # > lease TTL: the frozen worker's lease is reclaimed meanwhile
echo "sweepd_smoke: SIGCONT worker $FROZEN_PID (partition heals)" >&2
kill -CONT "$FROZEN_PID"

if ! wait "$CLIENT_PID"; then
  echo "sweepd_smoke: FAIL partition client sweep errored" >&2
  cat "$WORK/client_part.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_part.csv" "$WORK/daemon_part.csv"; then
  echo "sweepd_smoke: FAIL partition sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: partition-survivor CSV identical to local CSV" >&2

# Width scenario: a -width 3 sweep keys an entirely new cell grid (the
# width is part of the full core config, hence of every journal content
# address). The surviving worker regenerates each cell's width-3 config
# from the spec; daemon and local must render the same CSV.
echo "sweepd_smoke: local width-3 sweep" >&2
"$WORK/vccsweep" -insts "$INSTS" -seeds "$SEEDS" -modes "$MODES" \
  -width 3 -csv > "$WORK/local_w3.csv"
echo "sweepd_smoke: width-3 sweep through vccsweep -server" >&2
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -width 3 -csv > "$WORK/daemon_w3.csv" \
  2> "$WORK/client_w3.err"; then
  echo "sweepd_smoke: FAIL width-3 client sweep errored" >&2
  cat "$WORK/client_w3.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_w3.csv" "$WORK/daemon_w3.csv"; then
  echo "sweepd_smoke: FAIL width-3 daemon sweep differs from local sweep" >&2
  exit 1
fi
echo "sweepd_smoke: width-3 daemon CSV identical to local CSV" >&2

echo "sweepd_smoke: SIGTERM daemon, expecting graceful drain + exit 0" >&2
kill -TERM "$DAEMON_PID"
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
if [ "$DAEMON_RC" -ne 0 ]; then
  echo "sweepd_smoke: FAIL daemon exited $DAEMON_RC on SIGTERM" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
fi
grep -q "journal verified" "$WORK/daemon.err" || {
  echo "sweepd_smoke: FAIL daemon drained without verifying the journal" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
}
DAEMON_PID=""
SEGS="$(find "$WORK/jnl" -maxdepth 1 \( -name '*.rec' -o -name '*.seg' \) | wc -l)"
if [ "$SEGS" -ne 1 ] || compgen -G "$WORK/jnl/*.cell" >/dev/null; then
  echo "sweepd_smoke: FAIL drained journal holds $SEGS record files (want 1) or per-cell files" >&2
  ls -la "$WORK/jnl" >&2
  exit 1
fi
# The workers' checkpoint stores are logs too: the windowed sweep wrote
# snapshots, and none of them as a per-snapshot file.
if ! compgen -G "$WORK/w*-jnl/ckpt/*.rec" >/dev/null ||
  compgen -G "$WORK/w*-jnl/ckpt/*.snap" >/dev/null; then
  echo "sweepd_smoke: FAIL worker ckpt stores hold no record file, or a *.snap file" >&2
  ls -la "$WORK"/w*-jnl/ckpt >&2 || true
  exit 1
fi

# In-process scenario: a second daemon simulates with its own slots. They
# upload every result from memory through the daemon's content check,
# exactly as external workers do.
echo "sweepd_smoke: starting daemon with in-process workers (-workers 2)" >&2
: > "$WORK/daemon2.out"
"$WORK/sweepd" -addr 127.0.0.1:0 -journal "$WORK/jnl2" -workers 2 \
  > "$WORK/daemon2.out" 2> "$WORK/daemon2.err" &
DAEMON_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^sweepd: serving on //p' "$WORK/daemon2.out" | head -n1)"
  [ -n "$ADDR" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "sweepd_smoke: FAIL in-process daemon died at startup" >&2
    cat "$WORK/daemon2.err" >&2
    exit 1
  }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "sweepd_smoke: FAIL no serving line (in-process daemon)" >&2; exit 1; }
# The figures first, so their cells are simulated by the slots rather than
# replayed from the journal.
echo "sweepd_smoke: figures -fig all through -server (in-process slots)" >&2
if ! "$WORK/figures" -fig all -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -csv -progress > "$WORK/daemon_figs.csv" 2> "$WORK/client_figs.err"; then
  echo "sweepd_smoke: FAIL figures -server errored" >&2
  cat "$WORK/client_figs.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local_figs.csv" "$WORK/daemon_figs.csv"; then
  echo "sweepd_smoke: FAIL daemon figures differ from local figures" >&2
  exit 1
fi
echo "sweepd_smoke: daemon figures CSV identical to local" >&2
# Sweep IDs number submissions from sweep-1: the figures' one sweep is
# sweep-1, and the daemon knows no sweep-2 before vccsweep submits.
STATUS="$(curl -sf "http://$ADDR/api/v1/sweeps/sweep-1" || true)"
if [ -z "$STATUS" ] || curl -sf "http://$ADDR/api/v1/sweeps/sweep-2" >/dev/null; then
  echo "sweepd_smoke: FAIL figures -server submitted $([ -z "$STATUS" ] && echo no || echo more than one) sweep (want exactly 1)" >&2
  exit 1
fi
DAEMON_DERIVED="$(printf '%s' "$STATUS" | sed -n 's/.*"derived":\([0-9]*\).*/\1/p')"
if ! "$WORK/vccsweep" -server "$ADDR" -insts "$INSTS" -seeds "$SEEDS" \
  -modes "$MODES" -csv > "$WORK/daemon_local.csv" 2> "$WORK/client_local.err"; then
  echo "sweepd_smoke: FAIL in-process client sweep errored" >&2
  cat "$WORK/client_local.err" >&2
  exit 1
fi
if ! diff -u "$WORK/local.csv" "$WORK/daemon_local.csv"; then
  echo "sweepd_smoke: FAIL in-process daemon sweep differs from local sweep" >&2
  exit 1
fi
if has_entries "$WORK/jnl2/local"; then
  echo "sweepd_smoke: FAIL in-process slots wrote journal entries under <jnl>/local" >&2
  exit 1
fi
echo "sweepd_smoke: in-process daemon CSV identical to local CSV" >&2
kill -TERM "$DAEMON_PID"
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
if [ "$DAEMON_RC" -ne 0 ] || ! grep -q "journal verified" "$WORK/daemon2.err"; then
  echo "sweepd_smoke: FAIL in-process daemon exited $DAEMON_RC or drained unverified" >&2
  cat "$WORK/daemon2.err" >&2
  exit 1
fi
DAEMON_PID=""

# Cell accounting: this daemon's journal holds exactly the cells it
# simulated or derived for the figures (the vccsweep above replayed its
# grid from them), which are every distinct cell of the local run; the
# figures client simulated none (every progress line it printed is a
# daemon cell, tagged [daemon]), and nothing was replayed on either side.
DISTINCT="$(grep -c ' window(s))' "$WORK/local_figs.progress" || true)"
LOCAL="$(grep '^figures: \[' "$WORK/client_figs.err" | grep -vc ' \[daemon\]$' || true)"
REMOTE="$(grep -c '^figures: \[.* \[daemon\]$' "$WORK/client_figs.err" || true)"
DAEMON_CELLS="$(sed -n 's/.*journal verified (\([0-9]*\) entries).*/\1/p' "$WORK/daemon2.err")"
if grep -q '\[journal\]' "$WORK/local_figs.progress" "$WORK/client_figs.err" ||
  [ "$LOCAL" -ne 0 ] || [ "$REMOTE" -lt 1 ] || [ "$REMOTE" -ne "$DISTINCT" ] || [ "${DAEMON_CELLS:-0}" -ne "$DISTINCT" ]; then
  echo "sweepd_smoke: FAIL daemon journaled ${DAEMON_CELLS:-0} cells, the client simulated $LOCAL and showed $REMOTE daemon cells, local run has $DISTINCT distinct (want all on the daemon and shown, none replayed)" >&2
  exit 1
fi
echo "sweepd_smoke: daemon journaled all $DISTINCT distinct cells, the client showed each as a [daemon] line and simulated none" >&2
DERIVED="$(grep -c '\[derived from ' "$WORK/local_figs.progress" || true)"
if [ "$DERIVED" -lt 1 ] || [ "${DAEMON_DERIVED:-0}" -ne "$DERIVED" ]; then
  echo "sweepd_smoke: FAIL the daemon derived ${DAEMON_DERIVED:-0} figures cells, the local run $DERIVED (want equal, at least 1)" >&2
  exit 1
fi
echo "sweepd_smoke: figures derived $DERIVED of $DISTINCT cells locally and in the daemon's one sweep; both agree byte for byte" >&2

echo "sweepd_smoke: PASS (no shared FS; kill -9 + partition mid-sweep; width-3 grid; in-process slots; every figure through -server; results identical; clean drains)"
