# Shared helpers for the service CI scripts (service_smoke.sh,
# service_restart.sh, fleet_drill.sh). POSIX sh; source after setting
# $tmp to the script's scratch directory.

# pick_port prints a free loopback TCP port. Use it when a process must
# be (re)started on a port known in advance — a crashed daemon's
# replacement, a backend the drill revives — instead of hardcoding one,
# so concurrent CI runs don't collide.
pick_port() {
    go run ./scripts/freeport
}

# wait_listen LOGFILE PID LABEL waits for a daemon to report its address
# ("LABEL: listening on http://ADDR") in LOGFILE and prints the URL.
# Fails loudly if the process dies first or never reports.
wait_listen() {
    _log=$1
    _pid=$2
    _label=$3
    _addr=""
    _i=0
    while [ $_i -lt 100 ]; do
        _addr=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$_log" | head -1)
        [ -n "$_addr" ] && break
        if ! kill -0 "$_pid" 2>/dev/null; then
            echo "$_label exited early:" >&2
            cat "$_log" >&2
            return 1
        fi
        sleep 0.1
        _i=$((_i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "$_label never reported its address" >&2
        cat "$_log" >&2
        return 1
    fi
    echo "$_addr"
}

# wait_dead PID LABEL waits up to 30s for PID to exit (e.g. after a
# faultpoint fires). Fails loudly on timeout.
wait_dead() {
    _pid=$1
    _label=$2
    _i=0
    while kill -0 "$_pid" 2>/dev/null; do
        if [ $_i -ge 300 ]; then
            echo "$_label still up after 30s (faultpoint never fired?)" >&2
            return 1
        fi
        sleep 0.1
        _i=$((_i + 1))
    done
    wait "$_pid" 2>/dev/null || true
}
