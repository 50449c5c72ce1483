#!/bin/sh
# End-to-end smoke for the capping service and the crash-safe sweeps,
# driving the real binaries:
#
#   1. polyufc-serve under fault injection: concurrent requests, SIGTERM,
#      clean drain, journal replay across a restart.
#   2. polyufc-bench killed with SIGKILL mid-sweep, restarted with
#      -resume: completed entries replay and the figures are
#      byte-identical to an uninterrupted run.
#   3. checkpoints answer only for what they computed: Fig. 1 on the
#      0.05 GHz-grid backend renders the same bytes with and without
#      -journal, and polyufc -resume over an edited -platform-file
#      recomputes instead of replaying the old description's report.
#   4. a stage is keyed by what it reads: one kernel and tile size compiled
#      for bdw, then for rpl, answers differently while the second compile
#      takes tiling and PolyUFC-CM's counting from the first one's stage
#      snapshots and re-runs only what reads the target.
#
# Requires: go, curl, jq.
set -eu

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; kill $(jobs -p) 2>/dev/null || true' EXIT
cd "$(dirname "$0")/.."

echo "== building binaries"
go build -o "$tmp/polyufc-serve" ./cmd/polyufc-serve
go build -o "$tmp/polyufc-bench" ./cmd/polyufc-bench
go build -o "$tmp/polyufc" ./cmd/polyufc

addr="127.0.0.1:8337"
echo "== 1/4 serve: concurrent burst under ufs.write.ebusy, SIGTERM drain"
"$tmp/polyufc-serve" -addr "$addr" -journal "$tmp/serve.jsonl" \
    -fault 'ufs.write.ebusy=0.3' -breaker-threshold 3 2>"$tmp/serve.log" &
serve_pid=$!
for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null || { echo "daemon never came up"; cat "$tmp/serve.log"; exit 1; }

curl_pids=""
for i in $(seq 1 12); do
    case $((i % 2)) in
        0) body='{"kernel":"gemm","size":"test","measure":true}' ;;
        *) body='{"kernel":"atax","platform":"bdw","size":"test"}' ;;
    esac
    curl -s -X POST "http://$addr/v1/search" -d "$body" >"$tmp/resp.$i.json" &
    curl_pids="$curl_pids $!"
done
for pid in $curl_pids; do wait "$pid"; done

for i in $(seq 1 12); do
    grep -q '"nests"' "$tmp/resp.$i.json" || { echo "request $i got no answer:"; cat "$tmp/resp.$i.json"; exit 1; }
done

kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve.log"; exit 1; }
grep -q "drained, .*caps restored" "$tmp/serve.log" || { echo "no clean drain:"; cat "$tmp/serve.log"; exit 1; }
echo "   drain OK ($(grep -c . "$tmp/serve.jsonl" || true) journal lines)"

echo "== 2/4 bench: SIGKILL mid-sweep, resume, byte-identical figures"
"$tmp/polyufc-bench" -exp fig1 -size test -j 2 >"$tmp/clean.out" 2>/dev/null

"$tmp/polyufc-bench" -exp fig1 -size test -j 2 -journal "$tmp/sweep.jsonl" >"$tmp/killed.out" 2>/dev/null &
bench_pid=$!
# Let it checkpoint some work, then kill -9.
while [ ! -s "$tmp/sweep.jsonl" ]; do sleep 0.05; done
sleep 0.3
kill -9 "$bench_pid" 2>/dev/null || true
wait "$bench_pid" 2>/dev/null || true
done_before="$(grep -c . "$tmp/sweep.jsonl" || true)"

"$tmp/polyufc-bench" -exp fig1 -size test -j 2 -journal "$tmp/sweep.jsonl" -resume \
    >"$tmp/resumed.out" 2>"$tmp/resumed.err"
grep -q "resuming from" "$tmp/resumed.err" || { echo "resume banner missing:"; cat "$tmp/resumed.err"; exit 1; }
cmp -s "$tmp/clean.out" "$tmp/resumed.out" || {
    echo "resumed figures differ from uninterrupted run:"
    diff "$tmp/clean.out" "$tmp/resumed.out" | head -20
    exit 1
}
echo "   resume OK ($done_before entries survived the SIGKILL, figures byte-identical)"
echo "== 3/4 journal keys: fractional cap grid, stale -platform-file resume"
wide="-size test -platforms all -platform-file platforms/wide-uncore.json"
"$tmp/polyufc-bench" -exp fig1 $wide >"$tmp/wide.out" 2>/dev/null
"$tmp/polyufc-bench" -exp fig1 $wide -journal "$tmp/wide.jsonl" >"$tmp/wide.journaled.out" 2>/dev/null
cmp -s "$tmp/wide.out" "$tmp/wide.journaled.out" || {
    echo "Fig. 1 on the 0.05 GHz grid differs with -journal:"
    diff "$tmp/wide.out" "$tmp/wide.journaled.out" | head -20
    exit 1
}

cp platforms/wide-uncore.json "$tmp/wide.json"
cli="-kernel gemm -size test -platform wide -platform-file $tmp/wide.json -journal $tmp/cli.jsonl"
"$tmp/polyufc" $cli >"$tmp/cli.first" 2>&1
"$tmp/polyufc" $cli -resume | grep -q "replayed from journal" || { echo "same-flags -resume did not replay"; exit 1; }
sed -i 's/"uncore_max_ghz": *[0-9.]*/"uncore_max_ghz": 2.0/' "$tmp/wide.json"
"$tmp/polyufc" $cli -resume >"$tmp/cli.edited" 2>&1
if grep -q "replayed from journal" "$tmp/cli.edited"; then
    echo "-resume replayed a report computed for the unedited description:"; cat "$tmp/cli.edited"; exit 1
fi
awk '$1 ~ /^gemm_/ { sub(/G$/, "", $5); if ($5 + 0 > 2.0) bad = 1; n++ } END { exit (bad || n == 0) }' "$tmp/cli.edited" || {
    echo "caps outside the edited description's range (uncore_max_ghz 2.0):"; cat "$tmp/cli.edited"; exit 1
}
echo "   journal keys OK (journaled Fig. 1 byte-identical on WIDE, edited description recomputed)"
echo "== 4/4 stage keys: one kernel, one tile size, two platforms"
addr="127.0.0.1:8338"
"$tmp/polyufc-serve" -addr "$addr" 2>"$tmp/serve2.log" &
serve_pid=$!
for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "http://$addr/healthz" >/dev/null || { echo "daemon never came up"; cat "$tmp/serve2.log"; exit 1; }
for plat in bdw rpl; do
    curl -sf -X POST "http://$addr/v1/compile" \
        -d "{\"kernel\":\"gemm\",\"platform\":\"$plat\",\"tiling\":\"pluto:size=16\"}" >"$tmp/compile.$plat.json" ||
        { echo "compile on $plat failed"; cat "$tmp/serve2.log"; exit 1; }
done
if cmp -s "$tmp/compile.bdw.json" "$tmp/compile.rpl.json"; then
    echo "bdw and rpl got the same answer: the second platform was served the first one's result"; exit 1
fi
curl -s "http://$addr/statsz" >"$tmp/statsz.json"
jq -e '.Stages.deps.CacheHits >= 1 and .Stages.tile.CacheHits >= 1 and .Stages.cachemodel.CacheHits >= 1
       and .Stages["cache-eval"].Runs == 2 and .Stages["cache-eval"].CacheHits == 0' "$tmp/statsz.json" >/dev/null || {
    echo "stage reuse across platforms is off (want deps, tile, cachemodel hit; cache-eval run twice, never hit):"
    jq .Stages "$tmp/statsz.json"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon exited non-zero"; cat "$tmp/serve2.log"; exit 1; }
echo "   stage keys OK (rpl reused bdw's deps, tile and counting snapshots; the hierarchy was applied per platform)"
echo "smoke: all good"
