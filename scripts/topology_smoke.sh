#!/bin/sh
# End-to-end smoke for topology-aware backends, driving the real daemon:
#
#   1. polyufc-serve boots the 2-socket description from JSON alone:
#      /statsz reports the socket/link shape, /healthz one breaker per
#      socket domain, and a 2-socket search answers with a topology
#      rollup and per-socket cap vectors while the single-socket
#      response stays free of every topology key.
#   2. Measured searches are measured where the compiler placed the
#      nest: four measured 2-socket searches (gemm, mvt, atax, gemver)
#      each answer 200 and the calibration watchdog still reads ok for
#      2S-BDW (when the machine measured every nest socket-local, the
#      fourth was a 503 "calibration ... is degraded").
#   3. A ufs.write.ebusy fault scoped to socket 1 (-fault-socket 1)
#      degrades only that domain: the measured answer stands, the
#      response names the sick socket, and /healthz shows socket 0
#      closed with socket 1 open.
#   4. polyufc-cm models a parallel nest on the 2-socket description
#      with both sockets' threads (x24), as the compiler does — not
#      socket 0's twelve.
#
# Requires: go, curl.
set -eu

tmp="$(mktemp -d)"
# dash leaves the jobs table empty inside EXIT traps, so kill by the
# recorded pid rather than $(jobs -p) — a failed assertion must not
# leak a daemon holding the port for the next run.
serve_pid=""
trap '{ [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; } || true; rm -rf "$tmp"' EXIT
cd "$(dirname "$0")/.."

echo "== building polyufc-serve and polyufc-cm"
go build -o "$tmp/polyufc-serve" ./cmd/polyufc-serve
go build -o "$tmp/polyufc-cm" ./cmd/polyufc-cm

addr="127.0.0.1:8339"
wait_up() {
    for i in $(seq 1 50); do
        curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "daemon never came up"; cat "$1"; exit 1
}

echo "== 1/4 healthy 2-socket boot: per-socket stats and topology responses"
"$tmp/polyufc-serve" -addr "$addr" \
    -platform-file platforms/2-socket-bdw.json 2>"$tmp/serve1.log" &
serve_pid=$!
wait_up "$tmp/serve1.log"

curl -s "http://$addr/statsz" >"$tmp/statsz.json"
grep -q '"Sockets": *2' "$tmp/statsz.json" || { echo "statsz misses the 2-socket shape:"; cat "$tmp/statsz.json"; exit 1; }
grep -q '"InterconnectGBs": *19.2' "$tmp/statsz.json" || { echo "statsz misses the interconnect:"; cat "$tmp/statsz.json"; exit 1; }
grep -q '"2S-BDW#s1"' "$tmp/statsz.json" || { echo "no socket-1 breaker:"; cat "$tmp/statsz.json"; exit 1; }

curl -s -X POST "http://$addr/v1/search" \
    -d '{"kernel":"gemm","platform":"2s-bdw","size":"test"}' >"$tmp/topo.json"
grep -q '"topology"' "$tmp/topo.json" || { echo "2-socket search has no topology rollup:"; cat "$tmp/topo.json"; exit 1; }
grep -q '"socket_caps"' "$tmp/topo.json" || { echo "2-socket search has no cap vectors:"; cat "$tmp/topo.json"; exit 1; }
grep -q '"cluster_edp"' "$tmp/topo.json" || { echo "2-socket search has no cluster EDP:"; cat "$tmp/topo.json"; exit 1; }

curl -s -X POST "$addr/v1/search" -d '{"kernel":"gemm","size":"test"}' >"$tmp/one.json"
grep -q '"nests"' "$tmp/one.json" || { echo "single-socket request got no answer:"; cat "$tmp/one.json"; exit 1; }
for key in topology socket_caps remote_ratio socket_degraded; do
    if grep -q "\"$key\"" "$tmp/one.json"; then
        echo "single-socket response grew a $key key:"; cat "$tmp/one.json"; exit 1
    fi
done
echo "   2-socket boot OK (per-socket breakers, topology rollup, clean single-socket surface)"

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve1.log"; exit 1; }

echo "== 2/4 measured 2-socket searches keep the calibration ok"
"$tmp/polyufc-serve" -addr "$addr" \
    -platform-file platforms/2-socket-bdw.json 2>"$tmp/serve-m.log" &
serve_pid=$!
wait_up "$tmp/serve-m.log"

for kernel in gemm mvt atax gemver; do
    code=$(curl -s -o "$tmp/m-$kernel.json" -w '%{http_code}' -X POST "http://$addr/v1/search" \
        -d "{\"kernel\":\"$kernel\",\"platform\":\"2s-bdw\",\"size\":\"test\",\"measure\":true}")
    [ "$code" = 200 ] || { echo "measured search $kernel on 2s-bdw -> $code:"; cat "$tmp/m-$kernel.json"; exit 1; }
done
curl -s "http://$addr/statsz" | tr -d ' \n' >"$tmp/statsz-m.json"
grep -q '"2S-BDW":{"state":"ok"' "$tmp/statsz-m.json" || { echo "2S-BDW calibration not ok after measured searches:"; cat "$tmp/statsz-m.json"; exit 1; }
echo "   four measured searches 200, 2S-BDW drift ok"

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve-m.log"; exit 1; }

echo "== 3/4 socket-scoped fault: only the sick domain degrades"
"$tmp/polyufc-serve" -addr "$addr" \
    -platform-file platforms/2-socket-bdw.json \
    -fault 'ufs.write.ebusy=1' -fault-socket 1 -breaker-threshold 1 \
    2>"$tmp/serve2.log" &
serve_pid=$!
wait_up "$tmp/serve2.log"

curl -s -X POST "http://$addr/v1/search" \
    -d '{"kernel":"gemm","platform":"2s-bdw","size":"test","measure":true}' >"$tmp/fault.json"
grep -q '"measured"' "$tmp/fault.json" || { echo "measured answer missing:"; cat "$tmp/fault.json"; exit 1; }
grep -q '"socket_degraded"' "$tmp/fault.json" || { echo "no socket_degraded field:"; cat "$tmp/fault.json"; exit 1; }
grep -q '"s1: ' "$tmp/fault.json" || { echo "socket 1 not the degraded domain:"; cat "$tmp/fault.json"; exit 1; }
grep -q '"degraded_to"' "$tmp/fault.json" && { echo "socket-0 measurement degraded too:"; cat "$tmp/fault.json"; exit 1; }

curl -s "http://$addr/healthz" >"$tmp/health.json"
grep -q '"status": *"degraded"' "$tmp/health.json" || { echo "healthz not degraded:"; cat "$tmp/health.json"; exit 1; }
grep -q '"2S-BDW": *"closed"' "$tmp/health.json" || { echo "socket 0 tripped too:"; cat "$tmp/health.json"; exit 1; }
grep -q '"2S-BDW#s1": *"open"' "$tmp/health.json" || { echo "socket 1 breaker not open:"; cat "$tmp/health.json"; exit 1; }
echo "   fault isolation OK (answer stood, only 2S-BDW#s1 open)"

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve2.log"; exit 1; }

echo "== 4/4 polyufc-cm divides a spanning nest across every socket"
"$tmp/polyufc-cm" -kernel gemm -platform 2s-bdw -platform-file platforms/2-socket-bdw.json >"$tmp/cm.txt"
grep -q 'x24 threads' "$tmp/cm.txt" || { echo "polyufc-cm does not divide by 2S-BDW's 24 threads:"; cat "$tmp/cm.txt"; exit 1; }
grep -q 'x12 threads' "$tmp/cm.txt" && { echo "polyufc-cm divides by one socket's threads:"; cat "$tmp/cm.txt"; exit 1; }
echo "   parallel nests modeled at x24 threads"

echo "topology smoke: PASS"
