package service

import "sync"

// etaModel calibrates the planner's static cost model against observed
// wall-clock. Plan.Cost counts estimated issue cycles from launch geometry
// alone — loop trip counts are invisible statically, so the estimate is a
// relative weight, not a duration. The manager therefore keeps an EWMA of
// observed seconds per cost unit, fed one sample per completed cell (its
// cost share over the wall-clock since the previous completion), and
// scales remaining cost units into ETA seconds for status responses. The
// model is shared across jobs, so a daemon's second job gets a calibrated
// ETA before its first cell finishes.
type etaModel struct {
	mu         sync.Mutex
	secPerUnit float64
	samples    uint64
}

// etaAlpha is the EWMA weight of the newest sample: low enough to smooth
// the jitter of pipelined cell completions, high enough to track a
// workload shift within a few cells.
const etaAlpha = 0.2

// observe feeds one completed chunk of work: units of static cost that
// took seconds of wall-clock.
func (e *etaModel) observe(units, seconds float64) {
	if units <= 0 || seconds < 0 {
		return
	}
	s := seconds / units
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		e.secPerUnit = s
	} else {
		e.secPerUnit = etaAlpha*s + (1-etaAlpha)*e.secPerUnit
	}
	e.samples++
}

// estimate scales remaining cost units into seconds; ok is false until the
// first observation lands.
func (e *etaModel) estimate(units float64) (seconds float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		return 0, false
	}
	return units * e.secPerUnit, true
}

// export snapshots the calibration for the durable job store; restore is
// its inverse, seeding a freshly recovered daemon with the previous
// process's calibration so its first ETA (and first calibrated job
// timeout) is grounded instead of cold.
func (e *etaModel) export() (secPerUnit float64, samples uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.secPerUnit, e.samples
}

func (e *etaModel) restore(secPerUnit float64, samples uint64) {
	if samples == 0 || secPerUnit <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.secPerUnit = secPerUnit
	e.samples = samples
}
