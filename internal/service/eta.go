package service

import "sync"

// etaModel turns cell counts into wall-clock. The manager keeps an EWMA of
// observed seconds per cell, fed one sample per streamed record (the
// wall-clock since the previous record), and scales a job's remaining
// cells into ETA seconds for status responses and its whole cell count
// into the stuck-job timeout. The model is shared across jobs, so a
// daemon's second job gets a calibrated ETA before its first cell
// finishes.
type etaModel struct {
	mu         sync.Mutex
	secPerCell float64
	samples    uint64
}

// etaAlpha is the EWMA weight of the newest sample: low enough to smooth
// the jitter of pipelined cell completions, high enough to track a
// workload shift within a few cells.
const etaAlpha = 0.2

// observe feeds one completed cell that took seconds of wall-clock.
func (e *etaModel) observe(seconds float64) {
	if seconds < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		e.secPerCell = seconds
	} else {
		e.secPerCell = etaAlpha*seconds + (1-etaAlpha)*e.secPerCell
	}
	e.samples++
}

// estimate scales a cell count into seconds; ok is false until the first
// observation lands.
func (e *etaModel) estimate(cells int) (seconds float64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		return 0, false
	}
	return float64(cells) * e.secPerCell, true
}

// export snapshots the calibration for the durable job store; restore is
// its inverse, seeding a freshly recovered daemon with the previous
// process's calibration so its first ETA (and first calibrated job
// timeout) is grounded instead of cold.
func (e *etaModel) export() (secPerCell float64, samples uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.secPerCell, e.samples
}

func (e *etaModel) restore(secPerCell float64, samples uint64) {
	if samples == 0 || secPerCell <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.secPerCell = secPerCell
	e.samples = samples
}
