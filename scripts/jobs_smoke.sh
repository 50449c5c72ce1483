#!/bin/sh
# End-to-end smoke for the async job tier and the calibration-drift
# watchdog, driving the real polyufc-serve binary:
#
#   1. Crash-safe resume: a sweep job is submitted, the daemon is killed
#      with SIGKILL mid-job, a restarted daemon (same -jobs-dir) resumes
#      the job from its journal and finishes it — and the final result
#      is byte-identical to an uninterrupted control run.
#   2. Drift watchdog: a daemon whose hardware runs with the measurement
#      drift fault serves measured requests; /statsz shows the residuals
#      climbing past the threshold, an auto-enqueued refit job, and the
#      backend back to "ok" with a swapped calibration — no restart.
#   3. Breaker observability: /statsz exposes the cap breaker's
#      half-open/probe counters.
#
# Requires: go, curl, jq.
set -eu

tmp="$(mktemp -d)"
# dash leaves the jobs table empty inside EXIT traps, so a failing step
# kills the daemon by its tracked pid.
daemon_pid=
trap '{ [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null; } || true; rm -rf "$tmp"' EXIT
cd "$(dirname "$0")/.."

echo "== building polyufc-serve"
go build -o "$tmp/polyufc-serve" ./cmd/polyufc-serve

addr="127.0.0.1:8351"
base="http://$addr"

# start_daemon <jobs-dir> <logfile> [extra flags...]
start_daemon() {
    dir="$1"; log="$2"; shift 2
    "$tmp/polyufc-serve" -addr "$addr" -jobs-dir "$dir" "$@" 2>"$log" &
    daemon_pid=$!
    for i in $(seq 1 50); do
        curl -sf "$base/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "daemon never came up"; cat "$log"; exit 1
}

submit_sweep() {
    curl -s -X POST "$base/v1/jobs" \
        -d '{"kind":"sweep","suite":"all","platform":"bdw","size":"test"}' | jq -r .id
}

wait_done() { # wait_done <job-id>
    for i in $(seq 1 100); do
        state="$(curl -s "$base/v1/jobs/$1" | jq -r .state)"
        [ "$state" = done ] && return 0
        case "$state" in failed|canceled) echo "job $1 ended $state"; exit 1;; esac
        sleep 0.1
    done
    echo "job $1 never finished (state $state)"; exit 1
}

echo "== 1/3 control run: uninterrupted sweep"
start_daemon "$tmp/jobs-control" "$tmp/control.log"
job="$(submit_sweep)"
wait_done "$job"
curl -s "$base/v1/jobs/$job/result" >"$tmp/control.json"
# A unit is the answer its endpoint gives: a search for a swept kernel is
# the sweep's answer-memo hit and compiles nothing.
stat() { curl -s "$base/statsz" | jq "$1"; }
hits="$(stat .CompileCache.Hits)"; runs="$(stat .Stages.preprocess.Runs)"
curl -sf -o /dev/null -X POST "$base/v1/search" -d '{"kernel":"gemm","platform":"bdw","size":"test"}'
hits=$(( $(stat .CompileCache.Hits) - hits )); runs=$(( $(stat .Stages.preprocess.Runs) - runs ))
[ "$hits" = 1 ] && [ "$runs" = 0 ] || {
    echo "search for a swept kernel: answer-memo hits +$hits, preprocess runs +$runs (want +1, +0)"; exit 1; }
echo "   search for a swept kernel: one answer-memo hit, no compile"
kill "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
jq -e '.kernels | length > 3' "$tmp/control.json" >/dev/null || {
    echo "control sweep result looks empty:"; head -c 300 "$tmp/control.json"; exit 1; }

echo "== 2/3 crash run: SIGKILL mid-job, restart, byte-identical resume"
start_daemon "$tmp/jobs-crash" "$tmp/crash-a.log"
job="$(submit_sweep)"
# Let at least one unit checkpoint, then SIGKILL the whole daemon.
for i in $(seq 1 100); do
    units="$(curl -s "$base/v1/jobs/$job" | jq -r .units_done)"
    [ "$units" -ge 1 ] 2>/dev/null && break
    sleep 0.02
done
kill -9 "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
echo "   killed daemon with $units/15 units done"

start_daemon "$tmp/jobs-crash" "$tmp/crash-b.log"
grep -q "job tier on" "$tmp/crash-b.log" || { echo "job-tier banner missing:"; cat "$tmp/crash-b.log"; exit 1; }
status="$(curl -s "$base/v1/jobs/$job")"
if [ "$(echo "$status" | jq -r .state)" != done ]; then
    [ "$(echo "$status" | jq -r .resumed)" -ge 1 ] || {
        echo "interrupted job not marked resumed: $status"; exit 1; }
fi
wait_done "$job"
curl -s "$base/v1/jobs/$job/result" >"$tmp/resumed.json"
cmp -s "$tmp/control.json" "$tmp/resumed.json" || {
    echo "resumed result differs from the uninterrupted control run"
    exit 1
}
kill "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true
echo "   resume OK (result byte-identical to control)"

echo "== 3/3 drift watchdog: injected drift -> auto refit -> healthy"
start_daemon "$tmp/jobs-drift" "$tmp/drift.log" -fault "hw.measure.drift=1"
for i in 1 2 3; do
    curl -s -X POST "$base/v1/search" \
        -d '{"kernel":"gemm","platform":"bdw","size":"test","measure":true}' >/dev/null
done
# The third residual trips the watchdog; wait for the refit episode to
# resolve back to "ok" with one completed re-fit.
for i in $(seq 1 100); do
    drift="$(curl -s "$base/statsz" | jq -r '.Drift.BDW | "\(.state) \(.refits)"')"
    [ "$drift" = "ok 1" ] && break
    sleep 0.1
done
[ "$drift" = "ok 1" ] || { echo "watchdog never recovered (drift: $drift)"; cat "$tmp/drift.log"; exit 1; }
curl -s "$base/v1/jobs" | jq -e '.jobs | map(select(.kind == "refit" and .state == "done")) | length == 1' >/dev/null || {
    echo "no completed refit job:"; curl -s "$base/v1/jobs"; exit 1; }
# Post-refit the backend serves clean again (no 503, no degraded flag).
code="$(curl -s -o "$tmp/after.json" -w '%{http_code}' -X POST "$base/v1/search" \
    -d '{"kernel":"gemm","platform":"bdw","size":"test"}')"
[ "$code" = 200 ] || { echo "post-refit search got $code:"; cat "$tmp/after.json"; exit 1; }
jq -e '.calibration_degraded != true' "$tmp/after.json" >/dev/null || {
    echo "post-refit response still degraded:"; cat "$tmp/after.json"; exit 1; }
echo "   drift episode: degraded -> refit job -> ok (1 refit)"

curl -s "$base/statsz" >"$tmp/statsz.json"
jq -e '.Breakers.BDW | has("HalfOpens") and has("ProbeSuccesses") and has("ProbeFailures")' \
    "$tmp/statsz.json" >/dev/null || {
    echo "/statsz missing breaker probe counters:"; jq .Breakers "$tmp/statsz.json"; exit 1; }
kill "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true

echo "jobs smoke OK"
