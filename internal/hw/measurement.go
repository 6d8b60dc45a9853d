package hw

import (
	"fmt"
	"math"

	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
)

// SeqItem is one kernel execution in a measured sequence. Launch names the
// kernel; without Timing the card runs it on Mem and CMem to time it.
type SeqItem struct {
	Launch *kernel.Launch
	Mem    *kernel.GlobalMem
	CMem   *kernel.ConstMem
	// Timing, when set, is the launch's timing result, already computed
	// for a configuration with the card's TimingKey: the card prices it
	// with its silicon model and does not run the launch (Mem and CMem
	// may then be nil).
	Timing *sim.Result
	// Repeats executes the kernel back to back (the paper modifies
	// benchmarks with sub-500 us kernels to run 100 times, "because these
	// kernels are too short for reliable measurements").
	Repeats int
	// MinWindowS, when positive and Repeats is zero, auto-sizes the repeat
	// count so the measured window reaches at least this many seconds.
	MinWindowS float64
	// GapS is the idle gap after the kernel (clocks up, nothing running).
	GapS float64
}

// Measurement is the tool's per-kernel result: "the average power and amount
// of consumed energy can be calculated for each kernel execution" from the
// profiler timestamps and the sampled waveform.
type Measurement struct {
	KernelName string
	// AvgPowerW is the measured average power within the kernel window.
	AvgPowerW float64
	// EnergyJ is AvgPowerW integrated over the window.
	EnergyJ float64
	// WindowS is the measured window (kernel duration times repeats).
	WindowS float64
	// TrueKernelSeconds is one execution's true duration (from the
	// profiler; the paper's tool reads kernel start/end timestamps).
	TrueKernelSeconds float64
	// ShortWindow flags windows too short for the bulk capacitance of the
	// supply to settle — the measurement artifact the paper attributes the
	// mergeSort3 outlier to.
	ShortWindow bool
}

// Trace is the full sampled waveform of a measured sequence (Fig. 4 style).
type Trace struct {
	SampleHz float64
	// Samples holds the measured power at each tick.
	Samples []float64
	// Marks holds the [start, end) kernel windows in seconds.
	Marks [][2]float64
}

// TimeOf returns the timestamp of sample i.
func (tr *Trace) TimeOf(i int) float64 { return float64(i) / tr.SampleHz }

// avgWindow averages the samples within [t0, t1).
func (tr *Trace) avgWindow(t0, t1 float64) (float64, int) {
	i0 := int(t0 * tr.SampleHz)
	i1 := int(t1 * tr.SampleHz)
	if i1 <= i0 {
		i1 = i0 + 1
	}
	if i1 > len(tr.Samples) {
		i1 = len(tr.Samples)
	}
	if i0 >= len(tr.Samples) {
		return 0, 0
	}
	var sum float64
	for i := i0; i < i1; i++ {
		sum += tr.Samples[i]
	}
	return sum / float64(i1-i0), i1 - i0
}

// MeasureSequence executes a sequence of kernels on the virtual card and
// returns the sampled waveform plus per-kernel measurements. The waveform
// includes lead-in/lead-out idle, the supply's bulk-capacitance low-pass
// response, and the measurement chain's gain/offset/noise errors.
func (c *Card) MeasureSequence(items []SeqItem) (*Trace, []Measurement, error) {
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("hw: empty sequence")
	}
	const lead = 0.020 // seconds of idle before, between and after

	type phase struct {
		powerW float64
		durS   float64
		mark   int // index into measurements, or -1
		n      int // DAQ samples
	}
	idleW := c.PrePostKernelPowerW()
	phases := []phase{{powerW: idleW, durS: lead, mark: -1}}
	meas := make([]Measurement, len(items))

	for i, it := range items {
		perf := it.Timing
		if perf == nil {
			// Time the launch on the card's own silicon, through the
			// result cache: a kernel the simulator side already ran
			// with the same timing key replays instead of re-simulating.
			tr, err := simcache.Run(c.perf, it.Launch, it.Mem, it.CMem)
			if err != nil {
				return nil, nil, fmt.Errorf("hw: measuring %s: %w", it.Launch.Prog.Name, err)
			}
			perf = tr.Perf
		}
		trueW, oneT, err := c.kernelTruePower(perf)
		if err != nil {
			return nil, nil, fmt.Errorf("hw: measuring %s: %w", it.Launch.Prog.Name, err)
		}
		if it.Repeats <= 0 {
			if it.MinWindowS > 0 {
				it.Repeats = RepeatsForWindow(oneT, it.MinWindowS)
			} else {
				it.Repeats = 1
			}
		}
		window := oneT * float64(it.Repeats)
		meas[i] = Measurement{
			KernelName:        it.Launch.Prog.Name,
			TrueKernelSeconds: oneT,
			WindowS:           window,
			ShortWindow:       window < 0.050, // the paper's 50 ms criterion
		}
		phases = append(phases, phase{powerW: trueW, durS: window, mark: i})
		gap := it.GapS
		if gap <= 0 {
			gap = lead
		}
		phases = append(phases, phase{powerW: idleW, durS: gap, mark: -1})
	}

	// Build the true waveform at the DAQ rate, applying the first-order
	// bulk-capacitance response, then push every sample through the chain.
	dt := 1.0 / DAQSampleHz
	total := 0
	for i := range phases {
		phases[i].n = max(int(math.Ceil(phases[i].durS/dt)), 1)
		total += phases[i].n
	}
	tr := &Trace{SampleHz: DAQSampleHz, Samples: make([]float64, total), Marks: make([][2]float64, len(items))}
	level := idleW // filter state
	now := 0.0
	alpha := dt / c.capTauS
	if alpha > 1 {
		alpha = 1
	}
	off := 0
	for _, ph := range phases {
		if ph.mark >= 0 {
			tr.Marks[ph.mark] = [2]float64{now, now + ph.durS}
		}
		level = c.chain.measureRun(tr.Samples[off:off+ph.n], level, ph.powerW, alpha)
		off += ph.n
		now += float64(ph.n) * dt
	}

	// The tool integrates the waveform between the profiler timestamps.
	for i := range meas {
		avg, n := tr.avgWindow(tr.Marks[i][0], tr.Marks[i][1])
		if n == 0 {
			return nil, nil, fmt.Errorf("hw: kernel %s too short to capture any sample", meas[i].KernelName)
		}
		meas[i].AvgPowerW = avg
		meas[i].EnergyJ = avg * meas[i].WindowS
	}
	return tr, meas, nil
}

// RepeatsForWindow returns the repeat count needed so the measured window
// reaches at least wantS seconds (the paper's "execute the same kernels 100
// times" adjustment, generalised).
func RepeatsForWindow(oneKernelS, wantS float64) int {
	if oneKernelS <= 0 {
		return 1
	}
	r := int(math.Ceil(wantS / oneKernelS))
	if r < 1 {
		r = 1
	}
	return r
}
