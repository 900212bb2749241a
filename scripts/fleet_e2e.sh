#!/usr/bin/env bash
# fleet_e2e.sh — kill-under-load end-to-end gate for the real process fleet.
#
# Starts ebid-proxy fronting 3 ebid-server OS processes, drives the paper
# workload through loadgen, SIGKILLs one backend mid-load, and asserts the
# crash-only contract:
#   * the supervisor respawns the killed backend (restarts >= 1, ready again)
#   * no established session ever sees a plain 5xx (loadgen -fail-established-5xx)
#   * no session is lost by the router (lost_sessions == 0); lapses surface
#     as 401 + re-login, which the client absorbs transparently
#   * the proxy stops the whole fleet on SIGTERM (exit 0)
#
# Usage: scripts/fleet_e2e.sh [bindir]   (default bindir: ./bin)
set -euo pipefail

BIN=${1:-./bin}
PROXY_PORT=${PROXY_PORT:-18080}
BASE=http://127.0.0.1:$PROXY_PORT
DURATION=${DURATION:-20s}
CLIENTS=${CLIENTS:-20}
VICTIM=node1

for tool in "$BIN/ebid-proxy" "$BIN/ebid-server" "$BIN/loadgen"; do
  [[ -x $tool ]] || { echo "fleet_e2e: missing binary $tool (go build -o $BIN ./cmd/...)" >&2; exit 2; }
done
command -v jq >/dev/null || { echo "fleet_e2e: jq required" >&2; exit 2; }

WALDIR=$(mktemp -d)
PROXY_LOG=$WALDIR/proxy.log
PROXY_PID=
LOADGEN_PID=

cleanup() {
  local rc=$?
  if [[ -n $LOADGEN_PID ]] && kill -0 "$LOADGEN_PID" 2>/dev/null; then
    kill "$LOADGEN_PID" 2>/dev/null || true
  fi
  if [[ -n $PROXY_PID ]] && kill -0 "$PROXY_PID" 2>/dev/null; then
    kill -TERM "$PROXY_PID" 2>/dev/null || true
    wait "$PROXY_PID" 2>/dev/null || true
  fi
  if [[ $rc -ne 0 ]]; then
    echo "--- proxy log tail ---" >&2
    tail -n 40 "$PROXY_LOG" >&2 || true
  fi
  rm -rf "$WALDIR"
  exit $rc
}
trap cleanup EXIT

status() { curl -fsS "$BASE/admin/proxy/status"; }

echo "== starting proxy + 3-backend fleet (WALs in $WALDIR)"
"$BIN/ebid-proxy" \
  -addr "127.0.0.1:$PROXY_PORT" -base-port $((PROXY_PORT + 1)) \
  -backends 3 -policy shed -server-bin "$BIN/ebid-server" \
  -wal-dir "$WALDIR" \
  -server-flags "-users 100 -items 300" >"$PROXY_LOG" 2>&1 &
PROXY_PID=$!

for i in $(seq 1 60); do
  curl -fsS "$BASE/admin/proxy/ready" >/dev/null 2>&1 && break
  kill -0 "$PROXY_PID" 2>/dev/null || { echo "fleet_e2e: proxy died during startup" >&2; exit 1; }
  [[ $i == 60 ]] && { echo "fleet_e2e: fleet never became ready" >&2; exit 1; }
  sleep 0.5
done
echo "== fleet ready"

echo "== driving load ($CLIENTS clients for $DURATION)"
"$BIN/loadgen" -url "$BASE" -clients "$CLIENTS" -duration "$DURATION" -think 50ms \
  -users 100 -items 300 -fail-established-5xx &
LOADGEN_PID=$!

sleep 5
echo "== SIGKILLing $VICTIM mid-load"
curl -fsS -X POST "$BASE/admin/proxy/kill?backend=$VICTIM" >/dev/null

for i in $(seq 1 60); do
  if status | jq -e --arg v "$VICTIM" \
    '(.supervisor[] | select(.name == $v) | .restarts >= 1 and .ready)
     and ([.router.backends[].healthy] | all)' >/dev/null; then
    break
  fi
  [[ $i == 60 ]] && { echo "fleet_e2e: $VICTIM never respawned" >&2; exit 1; }
  sleep 0.5
done
echo "== $VICTIM respawned and healthy again"

if ! wait "$LOADGEN_PID"; then
  echo "fleet_e2e: loadgen FAILED (established session saw a 5xx)" >&2
  LOADGEN_PID=
  exit 1
fi
LOADGEN_PID=

FINAL=$(status)
echo "$FINAL" | jq '{lost: .router.lost_sessions, spilled: .router.spilled,
                     shed: .router.shed, retried: .router.retried,
                     restarts: [.supervisor[] | {(.name): .restarts}] | add}'
LOST=$(echo "$FINAL" | jq '.router.lost_sessions')
if [[ $LOST != 0 ]]; then
  echo "fleet_e2e: $LOST sessions lost by the router" >&2
  exit 1
fi

echo "== stopping fleet"
kill -TERM "$PROXY_PID"
if ! wait "$PROXY_PID"; then
  echo "fleet_e2e: proxy did not exit cleanly" >&2
  PROXY_PID=
  exit 1
fi
PROXY_PID=
echo "fleet_e2e: PASS (zero lost sessions, zero established-session 5xx, $VICTIM respawned under load)"
