#!/bin/sh
# Fleet chaos drill for `make ci` (ci-fleet): kill a backend mid-job
# under the router and prove fleet-level fault tolerance end to end.
#
#   1. Run the scenario in-process: the uninterrupted ground truth.
#   2. Predict the victim with `gpowfleet -route` — the consistent-hash
#      ring is a pure function of backend names, so the drill knows
#      which backend will own the job before anything starts.
#   3. Start two gpowd backends on pre-picked ports, the predicted
#      victim armed with crash-after-record to die right after its
#      second cell record; start gpowfleet over both.
#   4. A backgrounded `gpowexp -remote run -json` pointed at the ROUTER
#      rides through the backend loss: the router marks the victim
#      dead, re-dispatches the job to the survivor under the fleet
#      idempotency key, and the proxied stream resumes with ?from=N —
#      the client never learns a backend died.
#   5. Diff the rode-through NDJSON and the reduced report byte for
#      byte against the uninterrupted run, and assert the fleet status
#      shows the job re-homed to the survivor.
#   6. Drain rollout: revive the victim (same port, same state dir),
#      wait for the router to probe it back to healthy, drain the
#      survivor, and prove a new job routes around the drained backend
#      while the drained backend keeps serving its existing job's
#      report.
#   7. Lost job: a second router fronts one backend that runs without
#      -state-dir. It dies after its second record and is restarted at
#      once on its port, knowing no jobs. The router may see the dead
#      port first (its failover finds no survivor) or not, but the job
#      completes only once the restarted backend answers 404 for it and
#      the router re-submits it there. The riding client's NDJSON must
#      equal the uninterrupted run; the drill prints the path the
#      router's log shows.
set -eu

. ./scripts/service_lib.sh

scenario=${1:-ablation-processnode}
tmp=$(mktemp -d)
b0_pid=""
b1_pid=""
rt_pid=""
client_pid=""
s_pid=""
rt2_pid=""
cleanup() {
    for p in "$b0_pid" "$b1_pid" "$rt_pid" "$client_pid" "$s_pid" "$rt2_pid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/gpowd" ./cmd/gpowd
go build -o "$tmp/gpowexp" ./cmd/gpowexp
go build -o "$tmp/gpowfleet" ./cmd/gpowfleet

"$tmp/gpowexp" run "$scenario" -json >"$tmp/local.ndjson"
"$tmp/gpowexp" run "$scenario" -report-json >"$tmp/local-report.json"

# Backend ports are picked up front: the victim must be revivable on the
# address the router already knows.
p0=$(pick_port)
p1=$(pick_port)
backends="b0=http://127.0.0.1:$p0,b1=http://127.0.0.1:$p1"

# The ring decides the victim before anything runs.
victim=$("$tmp/gpowfleet" -backends "$backends" -route "$scenario" | cut -f3)
case "$victim" in
b0) survivor=b1 ;;
b1) survivor=b0 ;;
*)
    echo "fleet drill: -route printed unexpected owner '$victim'" >&2
    exit 1
    ;;
esac
victim_port=$p0
[ "$victim" = b1 ] && victim_port=$p1
survivor_port=$p0
[ "$survivor" = b0 ] || survivor_port=$p1
echo "fleet drill: ring owner for $scenario is $victim — arming it to die mid-job"

start_backend() { # name port logfile [env armed]
    if [ "${4:-}" = armed ]; then
        GPUSIMPOW_FAULTPOINT=crash-after-record:skip=1 \
            "$tmp/gpowd" -addr "127.0.0.1:$2" -state-dir "$tmp/state-$1" 2>"$3" &
    else
        "$tmp/gpowd" -addr "127.0.0.1:$2" -state-dir "$tmp/state-$1" 2>"$3" &
    fi
}

start_backend "$victim" "$victim_port" "$tmp/$victim.log" armed
victim_pid=$!
start_backend "$survivor" "$survivor_port" "$tmp/$survivor.log"
survivor_pid=$!
if [ "$victim" = b0 ]; then
    b0_pid=$victim_pid b1_pid=$survivor_pid
else
    b0_pid=$survivor_pid b1_pid=$victim_pid
fi
wait_listen "$tmp/$victim.log" "$victim_pid" "fleet drill: $victim" >/dev/null
wait_listen "$tmp/$survivor.log" "$survivor_pid" "fleet drill: $survivor" >/dev/null

"$tmp/gpowfleet" -addr 127.0.0.1:0 -backends "$backends" -state-dir "$tmp/state-fleet" \
    -probe-interval 250ms 2>"$tmp/fleet.log" &
rt_pid=$!
router=$(wait_listen "$tmp/fleet.log" "$rt_pid" "fleet drill: gpowfleet")

# The ride: the client only ever talks to the router.
"$tmp/gpowexp" -remote "$router" run "$scenario" -json >"$tmp/fleet.ndjson" 2>"$tmp/client.log" &
client_pid=$!

# The faultpoint kills the victim mid-job.
wait_dead "$victim_pid" "fleet drill: $victim"
if [ "$victim" = b0 ]; then b0_pid=""; else b1_pid=""; fi

if ! wait "$client_pid"; then
    client_pid=""
    echo "fleet drill: FAIL — client did not survive the backend loss" >&2
    cat "$tmp/client.log" >&2
    cat "$tmp/fleet.log" >&2
    exit 1
fi
client_pid=""

if ! diff "$tmp/local.ndjson" "$tmp/fleet.ndjson"; then
    echo "fleet drill: FAIL — records that rode through the backend loss diverge from the uninterrupted run" >&2
    cat "$tmp/fleet.log" >&2
    exit 1
fi

"$tmp/gpowexp" -remote "$router" report job-1 -json >"$tmp/fleet-report.json"
if ! diff "$tmp/local-report.json" "$tmp/fleet-report.json"; then
    echo "fleet drill: FAIL — failed-over job's report diverges from the uninterrupted reduction" >&2
    exit 1
fi

"$tmp/gpowfleet" -remote "$router" status >"$tmp/status1.txt"
if ! grep "^job-1	" "$tmp/status1.txt" | grep -q "on $survivor "; then
    echo "fleet drill: FAIL — job-1 was not re-homed to $survivor:" >&2
    cat "$tmp/status1.txt" >&2
    cat "$tmp/fleet.log" >&2
    exit 1
fi

# --- drain rollout ---

# Revive the victim on its old address (faultpoint disarmed); the router
# must probe it back from dead to healthy.
start_backend "$victim" "$victim_port" "$tmp/$victim-2.log"
revived_pid=$!
if [ "$victim" = b0 ]; then b0_pid=$revived_pid; else b1_pid=$revived_pid; fi
wait_listen "$tmp/$victim-2.log" "$revived_pid" "fleet drill: revived $victim" >/dev/null
i=0
until "$tmp/gpowfleet" -remote "$router" status | grep -q "^$victim	healthy"; do
    if [ $i -ge 100 ]; then
        echo "fleet drill: FAIL — router never probed revived $victim back to healthy" >&2
        "$tmp/gpowfleet" -remote "$router" status >&2 || true
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done

# Drain the survivor (which owns job-1) and submit new work: it must
# route to the revived victim, not the drained affinity owner.
"$tmp/gpowfleet" -remote "$router" drain "$survivor" >/dev/null
"$tmp/gpowexp" -remote "$router" run "$scenario" -json >"$tmp/fleet2.ndjson"
if ! diff "$tmp/local.ndjson" "$tmp/fleet2.ndjson"; then
    echo "fleet drill: FAIL — job run during the drain diverges from the uninterrupted run" >&2
    exit 1
fi
"$tmp/gpowfleet" -remote "$router" status >"$tmp/status2.txt"
if grep "^job-2	" "$tmp/status2.txt" | grep -q "on $survivor "; then
    echo "fleet drill: FAIL — new job landed on drained backend $survivor:" >&2
    cat "$tmp/status2.txt" >&2
    exit 1
fi
if ! grep "^job-2	" "$tmp/status2.txt" | grep -q "on $victim "; then
    echo "fleet drill: FAIL — job-2 missing from fleet status:" >&2
    cat "$tmp/status2.txt" >&2
    exit 1
fi

# The drained survivor keeps serving its existing job.
"$tmp/gpowexp" -remote "$router" report job-1 -json >"$tmp/fleet-report-drained.json"
if ! diff "$tmp/local-report.json" "$tmp/fleet-report-drained.json"; then
    echo "fleet drill: FAIL — drained backend stopped serving its existing job's report" >&2
    exit 1
fi

# --- a stateless backend loses its job ---

# One backend, so the job's only home is the restarted daemon: failing
# over cannot finish the job, only the 404 re-dispatch can.
q=$(pick_port)
GPUSIMPOW_FAULTPOINT=crash-after-record:skip=1 "$tmp/gpowd" -addr "127.0.0.1:$q" 2>"$tmp/stateless.log" &
s_pid=$!
wait_listen "$tmp/stateless.log" "$s_pid" "fleet drill: stateless b0" >/dev/null
"$tmp/gpowfleet" -addr 127.0.0.1:0 -backends "b0=http://127.0.0.1:$q" \
    -probe-interval 250ms 2>"$tmp/fleet-stateless.log" &
rt2_pid=$!
router2=$(wait_listen "$tmp/fleet-stateless.log" "$rt2_pid" "fleet drill: stateless gpowfleet")

"$tmp/gpowexp" -remote "$router2" run "$scenario" -json >"$tmp/stateless.ndjson" 2>"$tmp/client-stateless.log" &
client_pid=$!
wait_dead "$s_pid" "fleet drill: stateless b0"
"$tmp/gpowd" -addr "127.0.0.1:$q" 2>"$tmp/stateless-2.log" &
s_pid=$!
if ! wait "$client_pid"; then
    client_pid=""
    echo "fleet drill: FAIL — client did not survive the stateless backend's restart" >&2
    cat "$tmp/client-stateless.log" "$tmp/fleet-stateless.log" >&2
    exit 1
fi
client_pid=""
if ! diff "$tmp/local.ndjson" "$tmp/stateless.ndjson"; then
    echo "fleet drill: FAIL — records of the job the restarted backend lost diverge from the uninterrupted run" >&2
    cat "$tmp/fleet-stateless.log" >&2
    exit 1
fi
if ! grep -q 'backend b0 lost job-1 .*HTTP 404' "$tmp/fleet-stateless.log"; then
    echo "fleet drill: FAIL — the router's log shows no 404 re-dispatch" >&2
    cat "$tmp/fleet-stateless.log" >&2
    exit 1
fi
lost_path="404 re-dispatch"
if grep -q 'backend b0 dead' "$tmp/fleet-stateless.log"; then
    lost_path="probe saw the dead port, then 404 re-dispatch"
fi
echo "fleet drill: restarted stateless b0 lost job-1; router path: $lost_path"

echo "fleet drill: OK — $scenario: $victim killed mid-job; stream rode the failover to $survivor byte-identically; drained $survivor took no new work while still serving job-1; a job lost by a restart without -state-dir came through byte-identically ($lost_path)"
