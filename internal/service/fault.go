package service

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fault injection for crash-restart and resilience tests. A daemon arms
// at most one fault, from the GPUSIMPOW_FAULTPOINT environment variable,
// which OpenManager and fleet.NewRouter each read once:
//
//	<name>                 fire once, on the 1st hit
//	<name>:skip=N          fire once, on the (N+1)-th hit
//	<name>:times=M         fire on hits 1..M
//	<name>:skip=N:times=M  fire on hits N+1..N+M
//
// Counted triggers let fleet drills fault exactly one health probe or one
// stream flush out of an ongoing series without killing every subsequent
// one. Each daemon instance counts its own hits, so two managers in one
// process fault independently. An unknown name or a malformed spec is an
// error, and the daemon refuses to start: a drill that armed nothing
// would test nothing. A firing point does whatever failure it models —
// the record crash point kills the process like a SIGKILL would (os.Exit
// runs no deferred cleanup), the stream point severs the client's
// connection mid-NDJSON-line, the reduce point panics inside the
// scenario's reducer. Production daemons never set the variable, so
// every hit is one comparison.

// A Fault is a declared fault-injection point. Its underlying type is not
// a string, so a call site can name only the constants below.
type Fault uint8

const (
	_ Fault = iota // arms nothing
	// FaultCrashAfterRecord kills the process right after a job publishes
	// a cell record: mid-stream, with nothing cleaned up.
	FaultCrashAfterRecord
	// FaultDropConnectionMidStream severs a /cells response
	// after a line has been flushed, exercising client stream resumption.
	FaultDropConnectionMidStream
	// FaultPanicInReduce panics inside the scenario's Reduce hook,
	// exercising the report path's panic isolation.
	FaultPanicInReduce
	// FaultBlackholeProbe makes the backend's /v1/healthz hang until the
	// prober's timeout, exercising the router's dead-marking path without
	// killing the backend.
	FaultBlackholeProbe
	// FaultSeverProxiedStream severs the router's proxied NDJSON stream
	// after a line has been forwarded, exercising the router-side resume
	// (distinct from a backend loss: the backend stays healthy).
	FaultSeverProxiedStream
	// FaultDropBackendMidStream makes the router abandon its backend
	// connection mid-proxy and treat the backend as lost — the in-process
	// stand-in for a backend dropping mid-job, forcing failover without
	// killing any process.
	FaultDropBackendMidStream
)

// faultNames spells each fault as GPUSIMPOW_FAULTPOINT names it.
var faultNames = [...]string{
	FaultCrashAfterRecord:        "crash-after-record",
	FaultDropConnectionMidStream: "drop-connection-mid-stream",
	FaultPanicInReduce:           "panic-in-reduce",
	FaultBlackholeProbe:          "blackhole-probe",
	FaultSeverProxiedStream:      "sever-proxied-stream",
	FaultDropBackendMidStream:    "drop-backend-mid-stream",
}

func (f Fault) String() string { return faultNames[f] }

// ArmedFault is the fault one daemon armed at start-up, with its own hit
// counter. With nothing armed, no fault fires.
type ArmedFault struct {
	fault Fault
	skip  int // hits to let pass before firing
	times int // consecutive hits that fire
	hits  atomic.Int64
}

// ArmFault arms the fault GPUSIMPOW_FAULTPOINT names; unset, it arms
// nothing. An unknown name or a malformed spec is an error that lists the
// declared faults.
func ArmFault() (*ArmedFault, error) {
	return parseFault(os.Getenv("GPUSIMPOW_FAULTPOINT"))
}

// parseFault parses the grammar above. Each key may appear once, and
// skip+times must fit an int, so an accepted spec always fires.
func parseFault(spec string) (*ArmedFault, error) {
	a := &ArmedFault{times: 1}
	if spec == "" {
		return a, nil
	}
	parts := strings.Split(spec, ":")
	for f, name := range faultNames {
		if name != "" && name == parts[0] {
			a.fault = Fault(f)
		}
	}
	if a.fault == 0 {
		return nil, faultSpecError(spec, "unknown fault %q", parts[0])
	}
	seen := map[string]bool{}
	for _, p := range parts[1:] {
		key, val, _ := strings.Cut(p, "=")
		n, err := strconv.Atoi(val)
		switch {
		case err != nil || seen[key]:
			return nil, faultSpecError(spec, "bad option %q", p)
		case key == "skip" && n >= 0:
			a.skip = n
		case key == "times" && n >= 1:
			a.times = n
		default:
			return nil, faultSpecError(spec, "bad option %q", p)
		}
		seen[key] = true
	}
	if a.skip > math.MaxInt-a.times {
		return nil, faultSpecError(spec, "skip+times overflows")
	}
	return a, nil
}

func faultSpecError(spec, format string, args ...any) error {
	return fmt.Errorf("GPUSIMPOW_FAULTPOINT=%q: %s; want <fault>[:skip=N][:times=M], one of %s",
		spec, fmt.Sprintf(format, args...), strings.Join(faultNames[1:], ", "))
}

// Fire reports whether f fires at this hit. Only the armed fault counts
// hits; with skip=N and times=M it fires on hits N+1..N+M and never
// again.
func (a *ArmedFault) Fire(f Fault) bool {
	if a.fault != f {
		return false
	}
	n := a.hits.Add(1)
	return n > int64(a.skip) && n <= int64(a.skip+a.times)
}
