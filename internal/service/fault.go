package service

import (
	_ "embed"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Fault injection for crash-restart and resilience tests. The
// GPUSIMPOW_FAULTPOINT environment variable arms one faultpoint:
//
//	<name>                 fire once, on the 1st hit
//	<name>:skip=N          fire once, on the (N+1)-th hit
//	<name>:times=M         fire on hits 1..M
//	<name>:skip=N:times=M  fire on hits N+1..N+M
//
// Counted triggers let fleet drills fault exactly one health probe or one
// stream flush out of an ongoing series without killing every subsequent
// one. A firing point does whatever failure it models — the record crash
// point kills the process like a SIGKILL would (os.Exit runs no deferred
// cleanup), the stream point severs the client's connection
// mid-NDJSON-line, the reduce point panics inside the scenario's reducer.
// Production daemons never set the variable, so every faultpoint is a
// single branch on a cached string.
const (
	// FaultCrashAfterRecord kills the process right after a job publishes
	// a cell record: mid-stream, with nothing cleaned up.
	FaultCrashAfterRecord = "crash-after-record"
	// FaultDropConnectionMidStream severs a /cells response
	// after a line has been flushed, exercising client stream resumption.
	FaultDropConnectionMidStream = "drop-connection-mid-stream"
	// FaultPanicInReduce panics inside the scenario's Reduce hook,
	// exercising the report path's panic isolation.
	FaultPanicInReduce = "panic-in-reduce"
	// FaultBlackholeProbe makes the backend's /v1/healthz hang until the
	// prober's timeout, exercising the router's dead-marking path without
	// killing the backend.
	FaultBlackholeProbe = "blackhole-probe"
	// FaultSeverProxiedStream severs the router's proxied NDJSON stream
	// after a line has been forwarded, exercising the router-side resume
	// (distinct from a backend loss: the backend stays healthy).
	FaultSeverProxiedStream = "sever-proxied-stream"
	// FaultDropBackendMidStream makes the router abandon its backend
	// connection mid-proxy and treat the backend as lost — the in-process
	// stand-in for a backend dropping mid-job, forcing failover without
	// killing any process.
	FaultDropBackendMidStream = "drop-backend-mid-stream"
)

// faultpointManifest is the single source of truth for faultpoint names,
// shared with the shell drills (scripts/service_lib.sh require_faultpoint
// greps the same file) and cross-checked against the Fault* constants by
// gpowlint's faultpoint pass and TestFaultpointManifest.
//
//go:embed faultpoints.txt
var faultpointManifest string

// DeclaredFaultpoints returns the manifest's faultpoint names, sorted.
// Comment lines (#) and blanks are skipped.
func DeclaredFaultpoints() []string {
	var names []string
	for _, line := range strings.Split(faultpointManifest, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line)
	}
	sort.Strings(names)
	return names
}

// faultSpec is one parsed GPUSIMPOW_FAULTPOINT value.
type faultSpec struct {
	name  string
	skip  int // hits to let pass before firing
	times int // consecutive hits that fire
}

// parseFaultSpec parses the faultpoint grammar above. ok is false for an
// empty or malformed spec — a malformed spec arms nothing, it never
// half-fires.
func parseFaultSpec(spec string) (fs faultSpec, ok bool) {
	parts := strings.Split(spec, ":")
	if parts[0] == "" {
		return faultSpec{}, false
	}
	fs = faultSpec{name: parts[0], times: 1}
	for _, p := range parts[1:] {
		key, val, _ := strings.Cut(p, "=")
		n, err := strconv.Atoi(val)
		if err != nil {
			return faultSpec{}, false
		}
		switch key {
		case "skip":
			if n < 0 {
				return faultSpec{}, false
			}
			fs.skip = n
		case "times":
			if n < 1 {
				return faultSpec{}, false
			}
			fs.times = n
		default:
			return faultSpec{}, false
		}
	}
	return fs, true
}

var (
	faultMu   sync.Mutex
	faultHits = map[string]int{}
)

// faultpoint reports whether the named point fires at this hit. Hits are
// counted per name; with skip=N and times=M the point fires on hits
// N+1..N+M and never again.
func faultpoint(name string) bool {
	spec := os.Getenv("GPUSIMPOW_FAULTPOINT")
	if spec == "" {
		return false
	}
	fs, ok := parseFaultSpec(spec)
	if !ok || fs.name != name {
		return false
	}
	faultMu.Lock()
	faultHits[name]++
	hit := faultHits[name]
	faultMu.Unlock()
	return hit > fs.skip && hit <= fs.skip+fs.times
}

// Faultpoint is the exported faultpoint check for sibling packages
// (internal/fleet injects router-side faults through the same
// GPUSIMPOW_FAULTPOINT contract).
func Faultpoint(name string) bool { return faultpoint(name) }

// ResetFaultpoints clears all hit counters (test helper: lets one process
// arm the same point across sequential sub-tests).
func ResetFaultpoints() {
	faultMu.Lock()
	faultHits = map[string]int{}
	faultMu.Unlock()
}
