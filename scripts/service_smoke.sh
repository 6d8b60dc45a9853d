#!/bin/sh
# Service smoke test for `make ci`: build the daemon and the experiment
# CLI, start gpowd on an ephemeral loopback port, run the cheapest sweep
# scenario both in-process and through the daemon, and diff (1) the
# streamed NDJSON cell records, (2) the reduced report JSON
# (in-process sweep.BuildReport vs the daemon's GET
# /v1/jobs/{id}/report), (3) the rendered report and (4) the -v
# progress lines byte for byte. The two paths share one wire
# layer (internal/sweep CellRecord / Report) and one determinism
# contract, so any difference is a bug.
set -eu

. ./scripts/service_lib.sh

scenario=${1:-ablation-processnode}
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/gpowd" ./cmd/gpowd
go build -o "$tmp/gpowexp" ./cmd/gpowexp

"$tmp/gpowd" -addr 127.0.0.1:0 2>"$tmp/gpowd.log" &
pid=$!
addr=$(wait_listen "$tmp/gpowd.log" "$pid" "service smoke: gpowd")

"$tmp/gpowexp" run "$scenario" -json >"$tmp/local.ndjson"
"$tmp/gpowexp" -remote "$addr" run "$scenario" -json >"$tmp/remote.ndjson"

if ! diff "$tmp/local.ndjson" "$tmp/remote.ndjson"; then
    echo "service smoke: FAIL — remote records diverge from in-process run" >&2
    exit 1
fi

"$tmp/gpowexp" run "$scenario" -report-json >"$tmp/local-report.json"
"$tmp/gpowexp" -remote "$addr" run "$scenario" -report-json >"$tmp/remote-report.json"

if ! diff "$tmp/local-report.json" "$tmp/remote-report.json"; then
    echo "service smoke: FAIL — server-side reduced report diverges from in-process reduction" >&2
    exit 1
fi

"$tmp/gpowexp" run "$scenario" -v >"$tmp/local-report.txt" 2>"$tmp/local.err"
"$tmp/gpowexp" -remote "$addr" run "$scenario" -v >"$tmp/remote-report.txt" 2>"$tmp/remote.err"

if ! diff "$tmp/local-report.txt" "$tmp/remote-report.txt"; then
    echo "service smoke: FAIL — rendered remote report diverges from in-process rendering" >&2
    exit 1
fi

progress='^gpowexp: \[[0-9][0-9]*/[0-9][0-9]*\] .* done$'
grep "$progress" "$tmp/local.err" >"$tmp/local.progress" || true
grep "$progress" "$tmp/remote.err" >"$tmp/remote.progress" || true
if [ ! -s "$tmp/local.progress" ] || ! diff "$tmp/local.progress" "$tmp/remote.progress"; then
    echo "service smoke: FAIL — remote -v progress lines diverge from in-process ones" >&2
    exit 1
fi
echo "service smoke: OK — $scenario: $(wc -l <"$tmp/local.ndjson") cell record(s), reduced report and progress lines identical in-process and via $addr"
