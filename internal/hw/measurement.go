package hw

import (
	"crypto/sha256"
	"encoding/binary"
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
// response, and the measurement chain's gain/offset/noise errors. It always
// samples; Measure is the same measurement without the waveform, served
// from the result cache when the process has already made it.
func (c *Card) MeasureSequence(items []SeqItem) (*Trace, []Measurement, error) {
	seq, meas, err := c.sequence(items)
	if err != nil {
		return nil, nil, err
	}
	tr := c.sample(seq)
	avgs, err := tr.windowAverages(meas)
	if err != nil {
		return nil, nil, err
	}
	fillAverages(meas, avgs)
	return tr, meas, nil
}

// Measure executes a sequence of kernels on the virtual card and returns
// the per-kernel measurements, exactly as MeasureSequence would. The DAQ
// pass goes through the process-wide result cache: its key covers every
// number the pass reads (the rails' calibration, the noise stream's state,
// the idle level, the supply filter and every phase of the true waveform),
// so a repeated measurement takes the stored window averages and advances
// the noise stream past the draws the pass would have made. The card's
// next measurement is therefore the same either way.
func (c *Card) Measure(items []SeqItem) ([]Measurement, error) {
	seq, meas, err := c.sequence(items)
	if err != nil {
		return nil, err
	}
	avgs, hit, err := simcache.Measure(c.truth, c.measureKey(seq), func() ([]float64, error) {
		return c.sample(seq).windowAverages(meas)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		c.chain.noise.skip(uint64(seq.samples) * uint64(len(c.chain.rails)) * 12)
	}
	fillAverages(meas, avgs)
	return meas, nil
}

// sequence is a measured sequence priced on the card: the true power
// waveform as a list of constant-target phases, which the DAQ pass samples.
type sequence struct {
	idleW   float64 // the supply filter's initial level
	alpha   float64 // the supply filter's per-sample coefficient
	phases  []phase
	samples int // DAQ samples over all phases
}

// phase is one stretch of the true waveform: a kernel window or idle.
type phase struct {
	powerW float64
	durS   float64
	mark   int // index into measurements, or -1
	n      int // DAQ samples
}

// sequence prices items on the card and lays out the true waveform:
// lead-in idle, then each kernel window followed by its gap. The returned
// measurements lack only the sampled averages.
func (c *Card) sequence(items []SeqItem) (*sequence, []Measurement, error) {
	if len(items) == 0 {
		return nil, nil, fmt.Errorf("hw: empty sequence")
	}
	const lead = 0.020 // seconds of idle before, between and after

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

	dt := 1.0 / DAQSampleHz
	seq := &sequence{idleW: idleW, alpha: min(dt/c.capTauS, 1), phases: phases}
	for i := range phases {
		phases[i].n = max(int(math.Ceil(phases[i].durS/dt)), 1)
		seq.samples += phases[i].n
	}
	return seq, meas, nil
}

// sample runs the DAQ pass: it builds the true waveform at the DAQ rate,
// applying the first-order bulk-capacitance response, and pushes every
// sample through the chain, advancing its noise stream.
func (c *Card) sample(seq *sequence) *Trace {
	dt := 1.0 / DAQSampleHz
	tr := &Trace{SampleHz: DAQSampleHz, Samples: make([]float64, seq.samples)}
	level := seq.idleW // filter state
	now := 0.0
	off := 0
	for _, ph := range seq.phases {
		if ph.mark >= 0 {
			tr.Marks = append(tr.Marks, [2]float64{now, now + ph.durS})
		}
		level = c.chain.measureRun(tr.Samples[off:off+ph.n], level, ph.powerW, seq.alpha)
		off += ph.n
		now += float64(ph.n) * dt
	}
	return tr
}

// windowAverages integrates the waveform between the profiler timestamps,
// as the tool does: one average per kernel window.
func (tr *Trace) windowAverages(meas []Measurement) ([]float64, error) {
	avgs := make([]float64, len(tr.Marks))
	for i, m := range tr.Marks {
		avg, n := tr.avgWindow(m[0], m[1])
		if n == 0 {
			return nil, fmt.Errorf("hw: kernel %s too short to capture any sample", meas[i].KernelName)
		}
		avgs[i] = avg
	}
	return avgs, nil
}

// fillAverages completes the measurements with their window averages.
func fillAverages(meas []Measurement, avgs []float64) {
	for i := range meas {
		meas[i].AvgPowerW = avgs[i]
		meas[i].EnergyJ = avgs[i] * meas[i].WindowS
	}
}

// measureKey is the content address of seq's DAQ pass on the card: every
// number the pass reads, so two passes with equal keys sample identically.
func (c *Card) measureKey(seq *sequence) simcache.Key {
	buf := make([]byte, 0, 8*(4+5*len(c.chain.rails)+3*len(seq.phases)))
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.chain.rails)))
	for _, r := range c.chain.rails {
		f64(r.share)
		f64(r.voltageGainErr)
		f64(r.currentGainErr)
		f64(r.offsetW)
		f64(r.noiseW)
	}
	buf = binary.LittleEndian.AppendUint64(buf, c.chain.noise.state)
	f64(seq.idleW)
	f64(seq.alpha)
	for _, ph := range seq.phases {
		f64(ph.powerW)
		f64(ph.durS)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ph.mark)))
	}
	return sha256.Sum256(buf)
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
