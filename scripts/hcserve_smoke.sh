#!/bin/sh
# hcserve_smoke.sh — build hcserve, start it, POST the quickstart scenario,
# and assert a 200 response carrying non-empty evaluations, and that its
# compacted re-POST is a byte-identical result hit; then exercise
# POST /v1/evaluate-batch (NDJSON lines in input order, trace-hits for two
# scenarios sharing the quickstart trace, no sweep-only key), a sweep job
# (its lines in plan order, each naming its scenario), the 413 of a
# 65,536-cell sweep, and the GET /metrics
# scrape, with the Server-Timing header of a computed evaluation (none on a
# hit) and the eval stage's count. Finally, a chaos drill: restart the server with every disk write
# of its result cache failing (-fault resultcache.disk.write=error:1.0) and
# assert it degrades — bit-identical evaluations, a result hit from the
# result LRU above the skipped disk, degraded /healthz, error counters on
# /metrics, an empty cache directory.
# Used by CI and runnable locally: sh scripts/hcserve_smoke.sh
set -eu

ADDR="${HCSERVE_ADDR:-127.0.0.1:18080}"
BIN="$(mktemp -d)/hcserve"
go build -o "$BIN" ./cmd/hcserve

"$BIN" -addr "$ADDR" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# Wait for the listener (up to ~10s).
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "hcserve_smoke: server never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

# The quickstart scenario comes from the server's own built-in list, so the
# smoke exercises /v1/scenarios and /v1/evaluate together.
SCENARIO="$(curl -sf "http://$ADDR/v1/scenarios" | jq '.[] | select(.name == "quickstart")')"
if [ -z "$SCENARIO" ]; then
    echo "hcserve_smoke: quickstart scenario missing from /v1/scenarios" >&2
    exit 1
fi

STATUS="$(printf '%s' "$SCENARIO" | curl -s -o /tmp/hcserve_smoke_response.json \
    -D /tmp/hcserve_smoke_response.headers -w '%{http_code}' -X POST -d @- "http://$ADDR/v1/evaluate")"
if [ "$STATUS" != "200" ]; then
    echo "hcserve_smoke: POST /v1/evaluate returned $STATUS" >&2
    cat /tmp/hcserve_smoke_response.json >&2
    exit 1
fi
# A computed evaluation reports its request stages.
TIMING="$(tr -d '\r' < /tmp/hcserve_smoke_response.headers | awk -F': ' 'tolower($1) == "server-timing" {print $2}')"
case "$TIMING" in
*queue\;dur=*eval\;dur=*) echo "hcserve_smoke: Server-Timing: $TIMING" ;;
*)
    echo "hcserve_smoke: miss carries Server-Timing '$TIMING', want queue and eval" >&2
    exit 1
    ;;
esac
COUNT="$(jq '.evaluations | length' /tmp/hcserve_smoke_response.json)"
if [ "$COUNT" -lt 1 ]; then
    echo "hcserve_smoke: empty evaluations" >&2
    cat /tmp/hcserve_smoke_response.json >&2
    exit 1
fi
echo "hcserve_smoke: ok ($COUNT evaluations)"
jq -r '.evaluations[] | "  \(.strategy): within_baseline=\(.within_baseline)"' /tmp/hcserve_smoke_response.json

# The same scenario compacted (jq -c gives its cache key byte for byte) is
# answered from the result LRU by the body's compact form: a hit, with the
# first response's bytes.
printf '%s' "$SCENARIO" | jq -c . | curl -sf -D /tmp/hcserve_smoke_hit.headers \
    -o /tmp/hcserve_smoke_hit.json -X POST -d @- "http://$ADDR/v1/evaluate"
if ! grep -qi '^X-Hierclust-Cache: hit' /tmp/hcserve_smoke_hit.headers; then
    echo "hcserve_smoke: compacted re-POST was not a result hit" >&2
    cat /tmp/hcserve_smoke_hit.headers >&2
    exit 1
fi
if ! cmp -s /tmp/hcserve_smoke_response.json /tmp/hcserve_smoke_hit.json; then
    echo "hcserve_smoke: compacted re-POST answered different bytes" >&2
    exit 1
fi
if grep -qi '^Server-Timing:' /tmp/hcserve_smoke_hit.headers; then
    echo "hcserve_smoke: a result hit carries Server-Timing" >&2
    exit 1
fi
echo "hcserve_smoke: compact re-POST ok (hit, identical body)"

# Batch: the quickstart scenario again (result-cache hit after the POST
# above), a renamed copy — different result key, same trace key, so it must
# evaluate without recording the trace again ("trace-hit") — and a
# copy of that with another failure mix, which shares its clustering too.
BATCH="$(printf '%s' "$SCENARIO" | jq -c '[., . * {"name": "quickstart-batch"},
    . * {"name": "quickstart-mix", "mix": {"transient": 0.2, "node_loss": [0.9, 0.01]}}]')"
printf '%s' "$BATCH" | curl -sf -X POST -d @- \
    "http://$ADDR/v1/evaluate-batch" > /tmp/hcserve_smoke_batch.ndjson
LINES="$(wc -l < /tmp/hcserve_smoke_batch.ndjson)"
if [ "$LINES" -ne 3 ]; then
    echo "hcserve_smoke: batch returned $LINES NDJSON lines, want 3" >&2
    cat /tmp/hcserve_smoke_batch.ndjson >&2
    exit 1
fi
ORDER="$(jq -s -c 'map({index, status, cache})' /tmp/hcserve_smoke_batch.ndjson)"
WANT='[{"index":0,"status":200,"cache":"hit"},{"index":1,"status":200,"cache":"trace-hit"},{"index":2,"status":200,"cache":"trace-hit"}]'
if [ "$ORDER" != "$WANT" ]; then
    echo "hcserve_smoke: batch lines $ORDER, want $WANT" >&2
    exit 1
fi
# A batch line has no scenario key: batch and sweep lines are one type whose
# scenario only sweep cells set.
if ! jq -s -e 'all(.[]; keys - ["index", "status", "cache", "result", "error"] == [])' \
    /tmp/hcserve_smoke_batch.ndjson >/dev/null; then
    echo "hcserve_smoke: batch line keys $(jq -s -c 'map(keys)' /tmp/hcserve_smoke_batch.ndjson)" >&2
    exit 1
fi
echo "hcserve_smoke: batch ok (result hit + 2 trace-hits, in order)"

# Metrics: the scrape must expose the trace hits the batch just made, and
# one pass through the eval stage per computed evaluation: the first POST
# and the batch's two trace-hits.
curl -sf "http://$ADDR/metrics" > /tmp/hcserve_smoke_metrics.txt
for want in \
    'hcserve_cache_hits_total{cache="trace"} 2' \
    'hcserve_stage_seconds_count{stage="eval"} 3' \
    'hcserve_batch_scenarios_total 3' \
    'hcserve_shed_total 0'; do
    if ! grep -qxF "$want" /tmp/hcserve_smoke_metrics.txt; then
        echo "hcserve_smoke: /metrics missing line: $want" >&2
        grep '^hcserve_' /tmp/hcserve_smoke_metrics.txt >&2 || true
        exit 1
    fi
done
echo "hcserve_smoke: metrics ok"

# Sweep drill: submit a 2x2 sweep (2 machine sizes x 2 strategy sets),
# poll the job to completion, and assert the NDJSON stream carries all 4
# cells in deterministic cell order with a nonzero plan dedup ratio.
SWEEP='{"name":"smoke-grid","base":{"name":"smoke-grid","machine":{"nodes":16},"placement":{"ranks":64,"procs_per_node":4},"trace":{"source":"synthetic","iterations":10},"strategies":[{"kind":"naive","size":8}]},"axes":{"machines":[{"nodes":16},{"nodes":8,"ranks":32,"procs_per_node":4}],"strategies":[[{"kind":"naive","size":8}],[{"kind":"hierarchical"}]]}}'
STATUS="$(printf '%s' "$SWEEP" | curl -s -o /tmp/hcserve_smoke_sweep.json \
    -w '%{http_code}' -X POST -d @- "http://$ADDR/v1/sweeps")"
if [ "$STATUS" != "202" ]; then
    echo "hcserve_smoke: POST /v1/sweeps returned $STATUS" >&2
    cat /tmp/hcserve_smoke_sweep.json >&2
    exit 1
fi
SWEEP_ID="$(jq -r '.id' /tmp/hcserve_smoke_sweep.json)"
i=0
while :; do
    curl -sf "http://$ADDR/v1/sweeps/$SWEEP_ID" > /tmp/hcserve_smoke_sweep.json
    [ "$(jq -r '.state' /tmp/hcserve_smoke_sweep.json)" != "running" ] && break
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "hcserve_smoke: sweep $SWEEP_ID never finished" >&2
        exit 1
    fi
    sleep 0.1
done
if [ "$(jq -r '.state' /tmp/hcserve_smoke_sweep.json)" != "completed" ] || \
   [ "$(jq -r '.cells.total' /tmp/hcserve_smoke_sweep.json)" != "4" ] || \
   [ "$(jq -r '.cells.failed' /tmp/hcserve_smoke_sweep.json)" != "0" ]; then
    echo "hcserve_smoke: sweep did not complete cleanly: $(cat /tmp/hcserve_smoke_sweep.json)" >&2
    exit 1
fi
if [ "$(jq -r '.plan.dedup_ratio > 0' /tmp/hcserve_smoke_sweep.json)" != "true" ]; then
    echo "hcserve_smoke: sweep dedup ratio not positive: $(cat /tmp/hcserve_smoke_sweep.json)" >&2
    exit 1
fi
curl -sf "http://$ADDR/v1/sweeps/$SWEEP_ID/results" > /tmp/hcserve_smoke_sweep.ndjson
CELLS="$(jq -s -c 'map({index, scenario, status})' /tmp/hcserve_smoke_sweep.ndjson)"
WANT='[{"index":0,"scenario":"smoke-grid/m0/s0","status":200},{"index":1,"scenario":"smoke-grid/m0/s1","status":200},{"index":2,"scenario":"smoke-grid/m1/s0","status":200},{"index":3,"scenario":"smoke-grid/m1/s1","status":200}]'
if [ "$CELLS" != "$WANT" ]; then
    echo "hcserve_smoke: sweep cells $CELLS" >&2
    echo "hcserve_smoke:          want $WANT" >&2
    exit 1
fi
if ! jq -s -e 'all(.[]; has("scenario"))' /tmp/hcserve_smoke_sweep.ndjson >/dev/null; then
    echo "hcserve_smoke: a sweep line carries no scenario" >&2
    exit 1
fi
echo "hcserve_smoke: sweep ok (4 cells in order, dedup $(jq -r '.plan.dedup_ratio' /tmp/hcserve_smoke_sweep.json))"

# A sweep of 65,536 cells in a body under 2 KB is past the server's bound
# (1,024 by default): refused 413 from its axes, before any cell exists.
STATUS="$(jq -n -c '{name: "smoke-huge",
    base: {name: "smoke-huge", machine: {nodes: 16}, placement: {ranks: 64, procs_per_node: 4},
           trace: {source: "synthetic"}},
    axes: {machines: [range(1; 17) | {nodes: (16 + .)}],
           strategies: [range(1; 17) | [{kind: "naive", size: .}]],
           mixes: [range(1; 17) | {transient: .}],
           traces: [range(1; 17) | {iterations: .}]}}' |
    curl -s -o /tmp/hcserve_smoke_huge.json -w '%{http_code}' -X POST -d @- "http://$ADDR/v1/sweeps")"
if [ "$STATUS" != "413" ]; then
    echo "hcserve_smoke: 65,536-cell sweep answered $STATUS, want 413" >&2
    cat /tmp/hcserve_smoke_huge.json >&2
    exit 1
fi
echo "hcserve_smoke: over-bound sweep ok (413)"

# Rerun the identical sweep through the hcrun client: every cell must now
# come straight from the result cache, and the client must exit 0 with the
# same 4 lines on stdout.
HCRUN="$(dirname "$BIN")/hcrun"
go build -o "$HCRUN" ./cmd/hcrun
printf '%s' "$SWEEP" > /tmp/hcserve_smoke_sweep_doc.json
"$HCRUN" -sweep /tmp/hcserve_smoke_sweep_doc.json -server "http://$ADDR" -poll 100ms \
    > /tmp/hcserve_smoke_sweep2.ndjson 2>/dev/null
if [ "$(jq -s -c 'map(.cache)' /tmp/hcserve_smoke_sweep2.ndjson)" != '["hit","hit","hit","hit"]' ]; then
    echo "hcserve_smoke: resubmitted sweep not fully cache-hit: $(jq -s -c 'map({scenario, cache})' /tmp/hcserve_smoke_sweep2.ndjson)" >&2
    exit 1
fi
echo "hcserve_smoke: sweep rerun ok (all 4 cells from cache via hcrun -sweep)"

# Chaos drill: a fresh server with a disk result cache whose every write
# fails must keep serving, bit-identically: the tier degrades (its disk is
# skipped, every lookup in it misses) and the result LRU above it answers
# repeats.
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
CHAOS_DIR="$(mktemp -d)"
"$BIN" -addr "$ADDR" -result-cache-dir "$CHAOS_DIR" \
    -fault 'resultcache.disk.write=error:1.0' &
PID=$!
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "hcserve_smoke: chaos server never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done

STATUS="$(printf '%s' "$SCENARIO" | curl -s -o /tmp/hcserve_smoke_chaos.json \
    -w '%{http_code}' -X POST -d @- "http://$ADDR/v1/evaluate")"
if [ "$STATUS" != "200" ]; then
    echo "hcserve_smoke: chaos POST /v1/evaluate returned $STATUS" >&2
    cat /tmp/hcserve_smoke_chaos.json >&2
    exit 1
fi
if [ "$(jq -S '.evaluations' /tmp/hcserve_smoke_chaos.json)" != \
     "$(jq -S '.evaluations' /tmp/hcserve_smoke_response.json)" ]; then
    echo "hcserve_smoke: degraded-mode evaluations differ from the clean run" >&2
    exit 1
fi

# The same scenario again must be served from the result LRU as a result
# hit, byte-identical, without a second evaluation.
CACHE_HDR="$(printf '%s' "$SCENARIO" | \
    curl -s -o /tmp/hcserve_smoke_chaos2.json -D - -X POST -d @- "http://$ADDR/v1/evaluate" | \
    tr -d '\r' | awk -F': ' 'tolower($1) == "x-hierclust-cache" {print $2}')"
if [ "$CACHE_HDR" != "hit" ]; then
    echo "hcserve_smoke: chaos cache header '$CACHE_HDR', want hit" >&2
    exit 1
fi
if ! cmp -s /tmp/hcserve_smoke_chaos.json /tmp/hcserve_smoke_chaos2.json; then
    echo "hcserve_smoke: the result LRU's hit differs from the evaluated result" >&2
    exit 1
fi

HEALTH="$(curl -sf "http://$ADDR/healthz")"
if [ "$(printf '%s' "$HEALTH" | jq -r '.status')" != "degraded" ] || \
   [ "$(printf '%s' "$HEALTH" | jq -r '.result_cache.degraded')" != "true" ]; then
    echo "hcserve_smoke: healthz does not report degraded: $HEALTH" >&2
    exit 1
fi
if [ "$(printf '%s' "$HEALTH" | jq -r '.result_cache.write_errors >= 3')" != "true" ]; then
    echo "hcserve_smoke: healthz write_errors not counted: $HEALTH" >&2
    exit 1
fi
curl -sf "http://$ADDR/metrics" > /tmp/hcserve_smoke_chaos_metrics.txt
if ! grep -qxF 'hcserve_result_cache_degraded 1' /tmp/hcserve_smoke_chaos_metrics.txt; then
    echo "hcserve_smoke: /metrics missing hcserve_result_cache_degraded 1" >&2
    exit 1
fi
if ! grep -q '^hcserve_result_cache_disk_write_errors_total [1-9]' /tmp/hcserve_smoke_chaos_metrics.txt; then
    echo "hcserve_smoke: /metrics missing result-cache write errors" >&2
    exit 1
fi
if [ -n "$(ls "$CHAOS_DIR" 2>/dev/null)" ]; then
    echo "hcserve_smoke: failed writes left files behind: $(ls "$CHAOS_DIR")" >&2
    exit 1
fi
echo "hcserve_smoke: chaos drill ok (degraded, bit-identical, LRU hit, empty tier)"

# Restart drill: a server with a durable result cache is killed with
# SIGKILL (no drain, no flush window) and restarted over the same
# directory; the evaluation computed before the kill must come back as a
# result-cache hit, byte-identical, from the new process.
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
RESTART_DIR="$(mktemp -d)"
start_restart_server() {
    "$BIN" -addr "$ADDR" -result-cache-dir "$RESTART_DIR/results" \
        -sweep-journal "$RESTART_DIR/sweeps.journal" &
    PID=$!
    i=0
    until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "hcserve_smoke: restart-drill server never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}
start_restart_server

STATUS="$(printf '%s' "$SCENARIO" | curl -s -o /tmp/hcserve_smoke_restart1.json \
    -w '%{http_code}' -X POST -d @- "http://$ADDR/v1/evaluate")"
if [ "$STATUS" != "200" ]; then
    echo "hcserve_smoke: restart-drill POST /v1/evaluate returned $STATUS" >&2
    exit 1
fi

kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
start_restart_server

CACHE_HDR="$(printf '%s' "$SCENARIO" | \
    curl -s -o /tmp/hcserve_smoke_restart2.json -D - -X POST -d @- "http://$ADDR/v1/evaluate" | \
    tr -d '\r' | awk -F': ' 'tolower($1) == "x-hierclust-cache" {print $2}')"
if [ "$CACHE_HDR" != "hit" ]; then
    echo "hcserve_smoke: cache header after kill -9 restart is '$CACHE_HDR', want hit" >&2
    exit 1
fi
if ! cmp -s /tmp/hcserve_smoke_restart1.json /tmp/hcserve_smoke_restart2.json; then
    echo "hcserve_smoke: restarted result differs from the pre-kill result" >&2
    exit 1
fi
curl -sf "http://$ADDR/metrics" > /tmp/hcserve_smoke_restart_metrics.txt
if ! grep -qxF 'hcserve_result_cache_hits_total 1' /tmp/hcserve_smoke_restart_metrics.txt; then
    echo "hcserve_smoke: /metrics missing hcserve_result_cache_hits_total 1" >&2
    grep '^hcserve_result_cache' /tmp/hcserve_smoke_restart_metrics.txt >&2 || true
    exit 1
fi
echo "hcserve_smoke: restart drill ok (kill -9, warm result cache, bit-identical)"
