#!/bin/sh
# End-to-end smoke for the precomputed capping-plan tables, driving the
# real binaries against the fractional-grid (0.05 GHz step) backend:
#
#   1. polyufc -build-plan-table killed with SIGKILL mid-sweep: the
#      output path holds either nothing or a complete valid table —
#      never a torn file. A -resume run replays the journaled cells and
#      produces a table byte-identical to an uninterrupted sweep.
#   2. polyufc -plan-table answers caps from the table ([plan table]
#      markers, hit counters).
#   3. polyufc-serve boots with the table pinned to its own boot-time
#      calibration and reports hits in /statsz.
#   4. The same three on the shipped 2-socket description: the table's
#      rho axis comes from the topology, so a parallel nest placed across
#      both sockets is answered from it, offline and in the daemon.
#
# Requires: go, curl.
set -eu

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; kill $(jobs -p) 2>/dev/null || true' EXIT
cd "$(dirname "$0")/.."

echo "== building binaries"
go build -o "$tmp/polyufc" ./cmd/polyufc
go build -o "$tmp/polyufc-serve" ./cmd/polyufc-serve

plat="platforms/wide-uncore.json"
table="$tmp/wide.plan.json"

echo "== 1/4 build-plan-table: SIGKILL mid-sweep, resume byte-identical"
"$tmp/polyufc" -build-plan-table "$tmp/clean.plan.json" -platform-file "$plat" \
    -platform wide >/dev/null

"$tmp/polyufc" -build-plan-table "$table" -platform-file "$plat" \
    -platform wide -journal "$tmp/sweep.jsonl" >/dev/null 2>&1 &
build_pid=$!
# Let it checkpoint some cells, then kill -9.
while [ ! -s "$tmp/sweep.jsonl" ]; do sleep 0.02; done
kill -9 "$build_pid" 2>/dev/null || true
wait "$build_pid" 2>/dev/null || true
done_before="$(grep -c . "$tmp/sweep.jsonl" || true)"

if [ -e "$table" ]; then
    # The sweep won the race: atomic rename means the file is complete.
    cmp -s "$tmp/clean.plan.json" "$table" || { echo "table present after kill but not a complete valid sweep"; exit 1; }
    echo "   (sweep finished before the kill landed; file is complete)"
else
    "$tmp/polyufc" -build-plan-table "$table" -platform-file "$plat" \
        -platform wide -journal "$tmp/sweep.jsonl" -resume >"$tmp/resume.out"
    grep -q "resuming sweep" "$tmp/resume.out" || { echo "resume banner missing:"; cat "$tmp/resume.out"; exit 1; }
fi
cmp -s "$tmp/clean.plan.json" "$table" || {
    echo "resumed table differs from an uninterrupted sweep"
    exit 1
}
echo "   resume OK ($done_before cells survived the SIGKILL, table byte-identical)"

echo "== 2/4 polyufc -plan-table: caps answered from the table"
"$tmp/polyufc" -kernel gemm -size test -platform-file "$plat" -platform wide \
    -plan-table "$table" >"$tmp/compile.out"
grep -q "\[plan table\]" "$tmp/compile.out" || { echo "no [plan table] marker:"; cat "$tmp/compile.out"; exit 1; }
grep -q "plan tables: 1 loaded" "$tmp/compile.out" || { echo "plan stats line missing:"; cat "$tmp/compile.out"; exit 1; }
echo "   $(grep 'plan tables:' "$tmp/compile.out")"

echo "== 3/4 polyufc-serve: boot with the table, /statsz reports hits"
addr="127.0.0.1:8339"
"$tmp/polyufc-serve" -addr "$addr" -platform-file "$plat" -plan-table "$table" \
    2>"$tmp/serve.log" &
serve_pid=$!
for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null || { echo "daemon never came up"; cat "$tmp/serve.log"; exit 1; }

curl -s -X POST "http://$addr/v1/search" \
    -d '{"kernel":"gemm","platform":"wide","size":"test"}' >"$tmp/search.json"
grep -q '"nests"' "$tmp/search.json" || { echo "search got no answer:"; cat "$tmp/search.json"; exit 1; }

curl -s "http://$addr/statsz" >"$tmp/statsz.json"
grep -q '"loaded": *1' "$tmp/statsz.json" || { echo "/statsz shows no loaded table:"; cat "$tmp/statsz.json"; exit 1; }
grep -q '"hits": *[1-9]' "$tmp/statsz.json" || { echo "/statsz shows no plan hits:"; cat "$tmp/statsz.json"; exit 1; }

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve.log"; exit 1; }
echo "   serve OK (table loaded, hits counted, clean drain)"

echo "== 4/4 two sockets: build, compile and serve from the topology's rho planes"
plat2="platforms/2-socket-bdw.json"
table2="$tmp/2s.plan.json"
"$tmp/polyufc" -build-plan-table "$table2" -platform-file "$plat2" -platform 2s-bdw >/dev/null
grep -q '"rho_axis"' "$table2" || { echo "2-socket table carries no rho_axis"; exit 1; }
"$tmp/polyufc" -kernel gemm -size test -platform-file "$plat2" -platform 2s-bdw \
    -plan-table "$table2" >"$tmp/compile2.out"
# gemm's nests are parallel: placed across both sockets, remote share 1/2.
grep -q "\[plan table\]" "$tmp/compile2.out" || { echo "no [plan table] marker on a parallel nest:"; cat "$tmp/compile2.out"; exit 1; }
grep -q "plan tables: 1 loaded, [1-9][0-9]* hits" "$tmp/compile2.out" || { echo "no plan hits on two sockets:"; cat "$tmp/compile2.out"; exit 1; }
echo "   $(grep 'plan tables:' "$tmp/compile2.out")"

"$tmp/polyufc-serve" -addr "$addr" -platform-file "$plat2" -plan-table "$table2" \
    2>"$tmp/serve2.log" &
serve_pid=$!
for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null || { echo "daemon never came up"; cat "$tmp/serve2.log"; exit 1; }
curl -s -X POST "http://$addr/v1/search" \
    -d '{"kernel":"gemm","platform":"2s-bdw","size":"test"}' >"$tmp/search2.json"
grep -q '"nests"' "$tmp/search2.json" || { echo "search got no answer:"; cat "$tmp/search2.json"; exit 1; }
curl -s "http://$addr/statsz" >"$tmp/statsz2.json"
grep -q '"hits": *[1-9]' "$tmp/statsz2.json" || { echo "/statsz shows no plan hits on two sockets:"; cat "$tmp/statsz2.json"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve2.log"; exit 1; }
echo "   2-socket OK (rho planes built, hits offline and in /statsz, clean drain)"
echo "plantable smoke: all good"
