#!/bin/sh
# Crash/restart drill for `make ci`: kill gpowd mid-job and prove the
# full fault-tolerance chain end to end.
#
#   1. Run the scenario in-process: the uninterrupted ground truth.
#   2. Start gpowd on a pre-picked ephemeral port with -state-dir and
#      the crash-after-journal-append faultpoint armed to fire on the
#      4th journal append — submission, the running transition, and the
#      first cell record land on disk, then the daemon dies (exit 137)
#      while journaling the second cell, mid-stream from the client's
#      point of view.
#   3. A backgrounded `gpowexp -remote run -json` rides through the
#      outage: its self-healing client backs off, reconnects, and
#      resumes the cell stream with ?from=N.
#   4. Restart gpowd on the same port and state dir, faultpoint
#      disarmed. Recovery replays the journal, re-queues the
#      interrupted job, and re-executes it deterministically.
#   5. Diff the client's NDJSON against the uninterrupted run byte for
#      byte, then diff the recovered daemon's reduced report
#      (gpowexp report job-1 -json) the same way.
#   6. Stop that daemon with SIGTERM and start a third on the same
#      state dir. The store journals records, not reports, so the
#      recovered done job re-reduces its records on its first report:
#      diff that report the same way.
set -eu

. ./scripts/service_lib.sh

scenario=${1:-ablation-processnode}
tmp=$(mktemp -d)
pid=""
client_pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$client_pid" ] && kill "$client_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/gpowd" ./cmd/gpowd
go build -o "$tmp/gpowexp" ./cmd/gpowexp

"$tmp/gpowexp" run "$scenario" -json >"$tmp/local.ndjson"
"$tmp/gpowexp" run "$scenario" -report-json >"$tmp/local-report.json"

# The port is picked up front (not scraped from :0) because the restarted
# daemon must come back on the address the riding client already knows.
port=$(pick_port)

# First daemon: armed to die journaling the second cell record.
require_faultpoint crash-after-journal-append
GPUSIMPOW_FAULTPOINT=crash-after-journal-append:3 \
    "$tmp/gpowd" -addr "127.0.0.1:$port" -state-dir "$tmp/state" 2>"$tmp/gpowd1.log" &
pid=$!
addr=$(wait_listen "$tmp/gpowd1.log" "$pid" "service restart: gpowd")

"$tmp/gpowexp" -remote "$addr" run "$scenario" -json >"$tmp/remote.ndjson" 2>"$tmp/client.log" &
client_pid=$!

# The faultpoint kills the daemon mid-job; wait for it to die.
wait_dead "$pid" "service restart: gpowd"
pid=""

# Second daemon: same port, same state dir, faultpoint disarmed. The
# journal must yield the interrupted job for deterministic re-execution.
"$tmp/gpowd" -addr "127.0.0.1:$port" -state-dir "$tmp/state" 2>"$tmp/gpowd2.log" &
pid=$!

if ! wait "$client_pid"; then
    client_pid=""
    echo "service restart: FAIL — client did not survive the daemon restart" >&2
    cat "$tmp/client.log" >&2
    cat "$tmp/gpowd2.log" >&2
    exit 1
fi
client_pid=""

if ! grep -q "recovered" "$tmp/gpowd2.log"; then
    echo "service restart: FAIL — restarted daemon recovered nothing from $tmp/state" >&2
    cat "$tmp/gpowd2.log" >&2
    exit 1
fi

if ! diff "$tmp/local.ndjson" "$tmp/remote.ndjson"; then
    echo "service restart: FAIL — records streamed across the crash diverge from the uninterrupted run" >&2
    exit 1
fi

# The recovered daemon's server-side reduction of the re-executed job.
"$tmp/gpowexp" -remote "$addr" report job-1 -json >"$tmp/remote-report.json"
if ! diff "$tmp/local-report.json" "$tmp/remote-report.json"; then
    echo "service restart: FAIL — recovered job's report diverges from the uninterrupted reduction" >&2
    exit 1
fi

# A clean restart: the done job comes back with its records only.
kill -TERM "$pid"
wait_dead "$pid" "service restart: gpowd"
pid=""
"$tmp/gpowd" -addr "127.0.0.1:$port" -state-dir "$tmp/state" 2>"$tmp/gpowd3.log" &
pid=$!
addr=$(wait_listen "$tmp/gpowd3.log" "$pid" "service restart: gpowd")
"$tmp/gpowexp" -remote "$addr" report job-1 -json >"$tmp/rereduced-report.json"
if ! diff "$tmp/local-report.json" "$tmp/rereduced-report.json"; then
    echo "service restart: FAIL — report re-reduced after a clean restart diverges from the uninterrupted reduction" >&2
    exit 1
fi

echo "service restart: OK — $scenario: daemon killed mid-job; client resumed and $(wc -l <"$tmp/local.ndjson") cell record(s) + report match the uninterrupted run byte for byte, and so does the report re-reduced after a clean restart"
