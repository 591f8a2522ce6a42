#!/usr/bin/env bash
# Soak test for spexcheckd: one daemon with fault injection ARMED, a pack
# of concurrent clients sending a hostile mix (valid checks, batches,
# unknown targets, malformed bodies, oversized bodies, raw garbage,
# slow-loris dribbles) for SOAK_SECONDS — plus a connection ramp: a herd
# of idle keep-alive and half-sent slow connections held open for the
# WHOLE soak. Pass criteria:
#
#   1. the daemon never exits during the soak (zero crashes, zero aborts),
#   2. its RSS stays under SOAK_RSS_LIMIT_KB (no per-request leak),
#   3. the held connections cost connection slots, not workers:
#      /statz shows open_connections >= the ramp size while queue_depth
#      stays near zero and real requests keep being served,
#   4. SIGTERM produces a clean drain: exit code 0 and the final
#      "drained;" stats line in the log.
#
# Before the daemon starts, the seeded parser harnesses (HttpParser and
# ConfigFile, in parser_robustness_test next to the daemon binary) run 100
# times from a random seed, each repetition on a new seed: gtest advances
# --gtest_random_seed on every --gtest_repeat when --gtest_shuffle is on.
# A failure prints the gtest command that reproduces it.
#
# Usage: scripts/soak.sh [path-to-spexcheckd]
# Env:   SOAK_SECONDS (default 15), SOAK_CLIENTS (default 8),
#        SOAK_RAMP_CONNS (default 24), SOAK_PORT (default 18321),
#        SOAK_RSS_LIMIT_KB (default 786432).
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-build/spexcheckd}"
PORT="${SOAK_PORT:-18321}"
SECONDS_TO_RUN="${SOAK_SECONDS:-15}"
CLIENTS="${SOAK_CLIENTS:-8}"
RAMP_CONNS="${SOAK_RAMP_CONNS:-24}"
RSS_LIMIT_KB="${SOAK_RSS_LIMIT_KB:-786432}"
BASE="http://127.0.0.1:${PORT}"
LOG="$(mktemp /tmp/spexcheckd-soak.XXXXXX.log)"

[[ -x "${BIN}" ]] || { echo "soak: daemon binary not found: ${BIN}" >&2; exit 2; }

HARNESS="$(dirname "${BIN}")/parser_robustness_test"
[[ -x "${HARNESS}" ]] || { echo "soak: harness binary not found: ${HARNESS}" >&2; exit 2; }
HARNESS_CMD=("${HARNESS}" --gtest_filter='ParserHarnessTest.*' --gtest_shuffle
  --gtest_random_seed="$(( RANDOM % 99999 + 1 ))" --gtest_repeat=100)
printf -v HARNESS_LINE '%q ' "${HARNESS_CMD[@]}"
echo "soak: ${HARNESS_LINE}"
"${HARNESS_CMD[@]}" --gtest_brief=1 \
  || { echo "soak: FAIL — parser harness; reproduce with: ${HARNESS_LINE}"; exit 1; }

# Faults armed: every dynamic check dawdles 20ms (overlapping in-flight
# work, exercising the replay cap + shedding) and every request token is
# force-cancelled after 4096 interpreter polls (exercising mid-replay
# cancellation and cache-consistency under cancel).
#
# The socket timeouts are set LONGER than the soak on purpose: the
# connection ramp below holds idle keep-alive and half-sent connections
# open for the whole run, proving they cost connection slots (not
# workers, not queue depth) for as long as they live.
HOLD_MS=$(( (SECONDS_TO_RUN + 60) * 1000 ))
SPEXCHECKD_FAULTS="slow_replay:20,cancel_midway:4096" \
  "${BIN}" --port "${PORT}" --workers 4 --queue-capacity 16 \
  --max-connections 256 --per-target-replay-budget 64 \
  --deadline-ms 500 --read-timeout-ms "${HOLD_MS}" \
  --keepalive-idle-ms "${HOLD_MS}" --drain-deadline-ms 5000 \
  2> "${LOG}" &
DAEMON_PID=$!
cleanup() {
  kill -KILL "${DAEMON_PID}" 2>/dev/null || true
}
trap cleanup EXIT

for _ in $(seq 1 50); do
  if curl -fsS --max-time 2 "${BASE}/healthz" > /dev/null 2>&1; then
    break
  fi
  kill -0 "${DAEMON_PID}" 2>/dev/null || { echo "soak: daemon died during startup"; cat "${LOG}"; exit 1; }
  sleep 0.2
done
curl -fsS --max-time 2 "${BASE}/healthz" > /dev/null || { echo "soak: daemon never became healthy"; cat "${LOG}"; exit 1; }

hostile_client() {
  local id=$1 deadline=$2
  local good_body=$'log_level = 99999\n'
  local batch_body=$'=== a.conf\nlog_level = 2\n=== b.conf\nthis line has no equals\n=== c.conf\nlog_level = 99999\n'
  local huge_file
  huge_file="$(mktemp /tmp/spexcheckd-soak-huge.XXXXXX)"
  head -c 2097152 /dev/zero | tr '\0' 'x' > "${huge_file}"
  while (( $(date +%s) < deadline )); do
    case $(( RANDOM % 7 )) in
      0) curl -s --max-time 5 -X POST --data-binary "${good_body}" \
           "${BASE}/check?target=storage_a&name=soak-${id}.conf" > /dev/null ;;
      1) curl -s --max-time 5 -X POST --data-binary "${batch_body}" \
           "${BASE}/batch?target=storage_a" > /dev/null ;;
      2) curl -s --max-time 5 -X POST --data-binary "${good_body}" \
           "${BASE}/check?target=no_such_target" > /dev/null ;;
      3) curl -s --max-time 5 -X POST --data-binary "junk before frames" \
           "${BASE}/batch?target=storage_a" > /dev/null ;;
      4) curl -s --max-time 5 -X POST --data-binary "@${huge_file}" \
           "${BASE}/check?target=storage_a" > /dev/null ;;
      5) # Raw garbage straight onto the socket.
         printf 'NOT HTTP AT ALL\r\n\r\n' | timeout 3 bash -c \
           "cat > /dev/tcp/127.0.0.1/${PORT}" 2>/dev/null || true ;;
      6) # Slow-loris: dribble half a request, hold, abandon.
         timeout 3 bash -c \
           "exec 3<>/dev/tcp/127.0.0.1/${PORT}; printf 'POST /check HTTP/1.1\r\n' >&3; sleep 2; exec 3<&-" \
           2>/dev/null || true ;;
    esac
  done
  rm -f "${huge_file}"
}

# Connection ramp: half idle keep-alive (one served request, then parked),
# half slow-loris (a few header bytes, then silence). Each holder keeps
# its socket open until past END — these connections exist for the whole
# soak and must never occupy a worker or a queue slot.
ramp_idle_holder() {
  local hold=$1
  exec 3<>"/dev/tcp/127.0.0.1/${PORT}" 2>/dev/null || return 0
  printf 'GET /healthz HTTP/1.1\r\nHost: soak\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n' >&3
  head -c 1 <&3 > /dev/null 2>&1 || true
  sleep "${hold}"
  exec 3<&- 3>&- 2>/dev/null || true
}
ramp_slow_holder() {
  local hold=$1
  exec 3<>"/dev/tcp/127.0.0.1/${PORT}" 2>/dev/null || return 0
  printf 'POST /check?target=storage_a HTTP/1.1\r\nConte' >&3
  sleep "${hold}"
  exec 3<&- 3>&- 2>/dev/null || true
}

END=$(( $(date +%s) + SECONDS_TO_RUN ))
RAMP_PIDS=()
for id in $(seq 1 "${RAMP_CONNS}"); do
  if (( id % 2 == 0 )); then
    ramp_idle_holder $(( SECONDS_TO_RUN + 5 )) &
  else
    ramp_slow_holder $(( SECONDS_TO_RUN + 5 )) &
  fi
  RAMP_PIDS+=($!)
done

CLIENT_PIDS=()
for id in $(seq 1 "${CLIENTS}"); do
  hostile_client "${id}" "${END}" &
  CLIENT_PIDS+=($!)
done

# While the pack hammers: the daemon must stay up, its memory bounded,
# and — once mid-soak — the ramp's held connections must show up as
# open_connections on /statz with the queue still near empty: connection
# slots are cheap state, worker time is not, and the two never mix.
MAX_RSS=0
RAMP_CHECKED=0
MIDPOINT=$(( END - SECONDS_TO_RUN / 2 ))
while (( $(date +%s) < END )); do
  if ! kill -0 "${DAEMON_PID}" 2>/dev/null; then
    echo "soak: FAIL — daemon exited mid-soak"; cat "${LOG}"; exit 1
  fi
  RSS=$(awk '/VmRSS/{print $2}' "/proc/${DAEMON_PID}/status" 2>/dev/null || echo 0)
  (( RSS > MAX_RSS )) && MAX_RSS=${RSS}
  if (( RSS > RSS_LIMIT_KB )); then
    echo "soak: FAIL — RSS ${RSS}kB exceeds limit ${RSS_LIMIT_KB}kB"; exit 1
  fi
  if (( RAMP_CHECKED == 0 && $(date +%s) >= MIDPOINT )); then
    MID_STATS=$(curl -fsS --max-time 5 "${BASE}/statz" || echo '')
    OPEN=$(sed -n 's/.*"open_connections":\([0-9]*\).*/\1/p' <<< "${MID_STATS}")
    DEPTH=$(sed -n 's/.*"queue_depth":\([0-9]*\).*/\1/p' <<< "${MID_STATS}")
    if [[ -z "${OPEN}" || -z "${DEPTH}" ]]; then
      echo "soak: FAIL — /statz unreadable mid-soak: ${MID_STATS}"; exit 1
    fi
    if (( OPEN < RAMP_CONNS )); then
      echo "soak: FAIL — open_connections ${OPEN} < ramp ${RAMP_CONNS} (held connections not held?)"; exit 1
    fi
    if (( DEPTH > 8 )); then
      echo "soak: FAIL — queue_depth ${DEPTH} with ${OPEN} open connections (held connections are costing workers)"; exit 1
    fi
    echo "soak: ramp check OK — open_connections=${OPEN} queue_depth=${DEPTH}"
    RAMP_CHECKED=1
  fi
  sleep 1
done
if (( RAMP_CHECKED == 0 )); then
  echo "soak: FAIL — soak ended before the ramp check ran"; exit 1
fi
wait "${CLIENT_PIDS[@]}" 2>/dev/null || true
kill "${RAMP_PIDS[@]}" 2>/dev/null || true
wait "${RAMP_PIDS[@]}" 2>/dev/null || true

kill -0 "${DAEMON_PID}" 2>/dev/null || { echo "soak: FAIL — daemon not alive after soak"; cat "${LOG}"; exit 1; }
STATS=$(curl -fsS --max-time 5 "${BASE}/statz")
echo "soak: post-soak stats: ${STATS}"

# Clean SIGTERM drain, bounded by the drain deadline + margin.
kill -TERM "${DAEMON_PID}"
DRAIN_STATUS=0
for _ in $(seq 1 100); do
  if ! kill -0 "${DAEMON_PID}" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "${DAEMON_PID}" 2>/dev/null; then
  echo "soak: FAIL — daemon did not drain within 20s of SIGTERM"; cat "${LOG}"; exit 1
fi
wait "${DAEMON_PID}" || DRAIN_STATUS=$?
trap - EXIT
if (( DRAIN_STATUS != 0 )); then
  echo "soak: FAIL — daemon exited ${DRAIN_STATUS} on SIGTERM (want 0)"; cat "${LOG}"; exit 1
fi
grep -q "drained;" "${LOG}" || { echo "soak: FAIL — no drain stats line in log"; cat "${LOG}"; exit 1; }

echo "soak: OK (${CLIENTS} clients x ${SECONDS_TO_RUN}s, peak RSS ${MAX_RSS}kB)"
grep "drained;" "${LOG}"
