#!/bin/sh
# End-to-end CLI contract of the campaign service, driven by ctest:
#
#   serve_cli_test.sh digest      DMP_SERVED DMPC
#       `dmpc --remote` must print a stats digest bit-identical to the
#       local `dmpc --simulate` run of the same spec, and the daemon must
#       exit 143 (exitcode::Terminated) on SIGTERM after draining.
#
#   serve_cli_test.sh worker-kill DMP_SERVED DMPC
#       Same digest contract, but with DMP_SERVE_CRASH_TICKET=0 the worker
#       handling the first dispatched cell dies mid-campaign; the retry
#       must leave both the digest and the client exit code unchanged.
#
#   serve_cli_test.sh sigint      DMP_SERVED DMPC
#       SIGINT drains and exits 130 (exitcode::Interrupted).
#
#   serve_cli_test.sh restart     DMP_SERVED DMPC
#       The daemon is SIGKILLed mid-campaign and restarted on the same
#       socket and job store; the riding `dmpc --remote` must finish with
#       the local digest (DESIGN.md "Recovery & idempotency").
#
#   serve_cli_test.sh sun-path    DMP_SERVED DMPC
#       A socket path beyond the AF_UNIX sun_path limit must be rejected
#       cleanly (nonzero exit, "too long" diagnostic) by daemon and client.
#
#   serve_cli_test.sh hung-worker DMP_SERVED DMPC
#       With DMP_SERVE_HANG_ON_TICKET=0 the worker handling the first
#       dispatched cell wedges silently; the --cell-wall-ms watchdog must
#       SIGKILL it and the retried campaign must finish with the local
#       digest and an unchanged client exit code.
set -eu

MODE=$1
SERVED=$2
DMPC=$3

DIR=$(mktemp -d "${TMPDIR:-/tmp}/dmp-serve-cli.XXXXXX")
PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

SOCK="$DIR/served.sock"
LOG="$DIR/served.log"
BENCH=mcf
SIM=--sim-instrs=100000

if [ "$MODE" = sun-path ]; then
  # 200 path bytes inside $DIR: past sun_path on every platform we build.
  LONGSOCK="$DIR/$(printf '%0200d' 0).sock"
  if "$SERVED" --socket="$LONGSOCK" --workers=0 >"$LOG" 2>&1; then
    echo "FAIL: daemon accepted an overlong socket path"
    exit 1
  fi
  if ! grep -q "too long" "$LOG"; then
    echo "FAIL: daemon diagnostic does not explain the overlong path"
    cat "$LOG"
    exit 1
  fi
  if "$DMPC" "$BENCH" --remote="$LONGSOCK" "$SIM" >"$LOG" 2>&1; then
    echo "FAIL: dmpc accepted an overlong socket path"
    exit 1
  fi
  if ! grep -q "too long" "$LOG"; then
    echo "FAIL: dmpc diagnostic does not explain the overlong path"
    cat "$LOG"
    exit 1
  fi
  exit 0
fi

if [ "$MODE" = worker-kill ]; then
  DMP_SERVE_CRASH_TICKET=0
  export DMP_SERVE_CRASH_TICKET
fi

WALL=""
if [ "$MODE" = hung-worker ]; then
  DMP_SERVE_HANG_ON_TICKET=0
  export DMP_SERVE_HANG_ON_TICKET
  WALL=--cell-wall-ms=500
fi

# In restart mode the daemon gets its own store: the local digest run must
# not pre-warm the daemon's cache, or the remote campaign would finish
# before the kill ever lands mid-flight.
CACHE="$DIR/cache"
[ "$MODE" = restart ] && CACHE="$DIR/cache-daemon"

"$SERVED" --socket="$SOCK" --workers=2 --cache-dir="$CACHE" $WALL \
  >"$LOG" 2>&1 &
PID=$!

i=0
until grep -q listening "$LOG" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: daemon never reported listening"
    cat "$LOG"
    exit 1
  fi
  sleep 0.1
done

if [ "$MODE" = sigint ]; then
  kill -INT "$PID"
  wait "$PID" && CODE=0 || CODE=$?
  PID=""
  if [ "$CODE" -ne 130 ]; then
    echo "FAIL: expected exit 130 after SIGINT, got $CODE"
    cat "$LOG"
    exit 1
  fi
  exit 0
fi

LOCAL=$("$DMPC" "$BENCH" --simulate "$SIM" --cache-dir="$DIR/cache" \
  2>/dev/null | grep '^digest')

if [ "$MODE" = restart ]; then
  # Launch the remote campaign in the background, SIGKILL the daemon while
  # it may still be mid-flight, and restart it on the same socket and job
  # store.  The client rides the restart (reconnect, epoch check,
  # idempotent resubmit) and must land on the local digest.
  "$DMPC" "$BENCH" --remote="$SOCK" "$SIM" >"$DIR/remote.out" 2>&1 &
  CPID=$!
  sleep 0.2
  kill -9 "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null || true
  "$SERVED" --socket="$SOCK" --workers=2 --cache-dir="$CACHE" \
    >>"$LOG" 2>&1 &
  PID=$!
  # Wait for the restarted daemon's readiness line before going on.  When
  # the campaign finished before the kill, the final SIGTERM would follow at
  # once and could land before the daemon runs (still this shell's forked
  # child, under its TERM trap): that signal is lost and the wait for the
  # drain never returns.
  i=0
  until [ "$(grep -c listening "$LOG")" -ge 2 ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "FAIL: restarted daemon never reported listening"
      cat "$LOG"
      exit 1
    fi
    sleep 0.1
  done
  wait "$CPID" && RC=0 || RC=$?
  if [ "$RC" -ne 0 ]; then
    echo "FAIL: dmpc --remote exited $RC across the daemon restart"
    cat "$DIR/remote.out"
    cat "$LOG"
    exit 1
  fi
  REMOTE=$(grep '^digest' "$DIR/remote.out")
else
  REMOTE=$("$DMPC" "$BENCH" --remote="$SOCK" "$SIM" 2>/dev/null | grep '^digest')
fi

if [ -z "$LOCAL" ]; then
  echo "FAIL: local run printed no digest"
  exit 1
fi
if [ "$LOCAL" != "$REMOTE" ]; then
  echo "FAIL: digest mismatch"
  echo "  local : $LOCAL"
  echo "  remote: $REMOTE"
  exit 1
fi

if [ "$MODE" = worker-kill ]; then
  if ! grep -q "died holding ticket 0" "$LOG"; then
    echo "FAIL: the armed worker crash never happened"
    cat "$LOG"
    exit 1
  fi
fi

if [ "$MODE" = hung-worker ]; then
  if ! grep -q "hung: no heartbeat" "$LOG"; then
    echo "FAIL: the watchdog never detected the wedged worker"
    cat "$LOG"
    exit 1
  fi
fi

kill -TERM "$PID"
wait "$PID" && CODE=0 || CODE=$?
PID=""
if [ "$CODE" -ne 143 ]; then
  echo "FAIL: expected exit 143 after SIGTERM, got $CODE"
  cat "$LOG"
  exit 1
fi
exit 0
