#!/bin/sh
# End-to-end smoke of the serving stack, exactly the operator workflow:
#
#   1. start adc_serve on a Unix socket with a persistent --cache-dir,
#      a /metrics listener and a structured access log;
#   2. drive the full 32-point DIFFEQ GT grid through adc_submit (cold:
#      exit 4 is the grid's deadlock floor, nothing warm) and, while the
#      grid is in flight, scrape /metrics and diff the exposed metric
#      families against the committed catalogue;
#   3. render one adc_top frame off the live daemon;
#   4. fetch a per-job trace with adc_submit --trace-out and validate it;
#   5. SIGTERM the daemon and require a clean drain (exit 0), then
#      validate the access log and the process trace (--trace-out: spans
#      of concurrent jobs on both workers) it wrote;
#   6. start a second daemon over the same cache directory and re-run the
#      grid: every point must replay from the disk tier ("from_disk_cache"
#      32 times in the JSON report);
#   7. SIGTERM again, then audit the cache directory with adc_obs_check;
#   8. fill a fresh cache directory with adc_dse's GT grid, start a daemon
#      over it and re-run adc_submit's GT grid: both tools run the same
#      32 recipes, so every point must replay from disk.
#
# Usage: serve_smoke.sh ADC_SERVE ADC_SUBMIT ADC_OBS_CHECK ADC_TOP ADC_DSE WORKDIR
set -eu

ADC_SERVE=$1
ADC_SUBMIT=$2
ADC_OBS_CHECK=$3
ADC_TOP=$4
ADC_DSE=$5
WORKDIR=$6
CATALOGUE=$(dirname "$0")/data/metrics_catalogue.txt

SOCK="$WORKDIR/serve_smoke.sock"
CACHE="$WORKDIR/serve_smoke_cache"
DSE_CACHE="$WORKDIR/serve_smoke_dse_cache"
READY="$WORKDIR/serve_smoke_ready.json"
ACCESS="$WORKDIR/serve_smoke_access.jsonl"
PROCESS_TRACE="$WORKDIR/serve_smoke_process.trace.json"
rm -rf "$CACHE" "$DSE_CACHE" "$READY" "$SOCK" "$ACCESS" "$ACCESS.1" "$PROCESS_TRACE"
mkdir -p "$WORKDIR"

fail() {
    echo "serve_smoke: $1" >&2
    exit 1
}

daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# Extra arguments go to adc_serve.
start_daemon() {
    rm -f "$READY"
    "$ADC_SERVE" --socket "$SOCK" --cache-dir "$CACHE" \
        --metrics-port 0 --access-log "$ACCESS" \
        --ready-file "$READY" --workers 2 --log-level warn "$@" &
    daemon_pid=$!
    i=0
    while [ ! -f "$READY" ]; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "daemon did not come up"
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died during startup"
        sleep 0.1
    done
    metrics_port=$(sed -n 's/.*"metrics_port":\([0-9]*\).*/\1/p' "$READY")
    [ -n "$metrics_port" ] && [ "$metrics_port" -gt 0 ] ||
        fail "ready file carries no metrics port"
}

stop_daemon() {
    kill -TERM "$daemon_pid"
    rc=0
    wait "$daemon_pid" || rc=$?
    daemon_pid=""
    [ "$rc" -eq 0 ] || fail "daemon drain exited $rc (want 0)"
}

grid_run() {
    out=$1
    rc=0
    "$ADC_SUBMIT" --socket "$SOCK" --grid gt --json "$out" || rc=$?
    # The GT grid's four gt5-without-gt2/gt3 corners deadlock in the event
    # simulator: 4 is the expected floor, anything else is a real failure.
    [ "$rc" -eq 4 ] || fail "grid run exited $rc (want the deadlock floor 4)"
}

warm_count() {
    grep -c '"from_disk_cache": true' "$1" || true
}

# --- cold daemon, scraped mid-load ------------------------------------------
start_daemon --trace-out "$PROCESS_TRACE"
grid_run "$WORKDIR/serve_smoke_cold.json" &
grid_pid=$!
sleep 2
# The grid is in flight: the exposition must already be valid and its
# family set must match the committed catalogue exactly.
"$ADC_OBS_CHECK" --prom-fetch "127.0.0.1:$metrics_port" \
    --catalogue "$CATALOGUE" \
    --prom-out "$WORKDIR/serve_smoke_metrics.txt" ||
    fail "mid-load /metrics scrape failed validation or catalogue diff"
"$ADC_TOP" --socket "$SOCK" --once > "$WORKDIR/serve_smoke_top.txt" ||
    fail "adc_top --once against the live daemon failed"
grep -q "^jobs " "$WORKDIR/serve_smoke_top.txt" ||
    fail "adc_top frame is missing the jobs line"
wait "$grid_pid" || fail "backgrounded cold grid run failed"
warm=$(warm_count "$WORKDIR/serve_smoke_cold.json")
[ "$warm" -eq 0 ] || fail "cold run reported $warm disk hits (want 0)"

# --- per-job trace off the live daemon --------------------------------------
"$ADC_SUBMIT" --socket "$SOCK" --bench diffeq --recipes "gt1; gt2; lt" \
    --no-sim --trace-out "$WORKDIR/serve_smoke_trace.json" ||
    fail "traced submit failed"
"$ADC_OBS_CHECK" --trace "$WORKDIR/serve_smoke_trace.json" ||
    fail "per-job trace failed validation"
grep -q '"queue.wait"' "$WORKDIR/serve_smoke_trace.json" ||
    fail "per-job trace has no queue.wait span"
stop_daemon

# --- access log and process trace written by the drained daemon ------------
"$ADC_OBS_CHECK" --access-log "$ACCESS" || fail "access log failed validation"
"$ADC_OBS_CHECK" --trace "$PROCESS_TRACE" ||
    fail "daemon process trace failed validation"
done_lines=$(grep -c '"event":"done"' "$ACCESS" || true)
[ "$done_lines" -ge 33 ] ||
    fail "access log has $done_lines done lines (want >= 33)"

# --- restarted daemon over the same cache dir -------------------------------
start_daemon
grid_run "$WORKDIR/serve_smoke_warm.json"
warm=$(warm_count "$WORKDIR/serve_smoke_warm.json")
[ "$warm" -eq 32 ] || fail "warm run replayed $warm/32 points from disk"
stop_daemon

# --- cache directory integrity ----------------------------------------------
"$ADC_OBS_CHECK" --cache-dir "$CACHE" || fail "cache audit failed"

# --- a daemon over adc_dse's cache replays adc_submit's grid ----------------
rc=0
"$ADC_DSE" --bench diffeq --grid gt --jobs 2 --cache-dir "$DSE_CACHE" \
    > "$WORKDIR/serve_smoke_dse.txt" || rc=$?
[ "$rc" -eq 4 ] || fail "adc_dse grid exited $rc (want the deadlock floor 4)"
CACHE=$DSE_CACHE
start_daemon
grid_run "$WORKDIR/serve_smoke_dse_warm.json"
warm=$(warm_count "$WORKDIR/serve_smoke_dse_warm.json")
[ "$warm" -eq 32 ] ||
    fail "daemon over adc_dse's cache replayed $warm/32 adc_submit points"
stop_daemon

echo "serve_smoke: ok (32-point grid cold + warm, mid-load metrics scrape," \
     "traced job, validated access log and process trace, clean SIGTERM drains," \
     "adc_dse-warmed daemon replays adc_submit's grid)"
