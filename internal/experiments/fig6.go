package experiments

import (
	"fmt"
	"math"
	"sort"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/sweep"
)

// Fig6Bar is one bar pair of Figure 6: one kernel's simulated and measured
// total power, split into static and dynamic parts.
type Fig6Bar struct {
	Kernel string

	SimStaticW   float64
	SimDynamicW  float64
	MeasStaticW  float64
	MeasDynamicW float64

	// RelErrPct is |sim - measured| / measured * 100 on total power.
	RelErrPct float64
	// ShortWindow marks kernels measured below the 50 ms reliability limit.
	ShortWindow bool
	// Executions is how many launches were aggregated (multi-launch kernels
	// are averaged arithmetically, as in the paper).
	Executions int
}

// SimTotalW returns the simulated total power.
func (b Fig6Bar) SimTotalW() float64 { return b.SimStaticW + b.SimDynamicW }

// MeasTotalW returns the measured total power.
func (b Fig6Bar) MeasTotalW() float64 { return b.MeasStaticW + b.MeasDynamicW }

// Fig6Result is one sub-figure (6a or 6b).
type Fig6Result struct {
	GPU  string
	Bars []Fig6Bar
	// AvgRelErrPct is the average of absolute relative errors ("when
	// averaging errors, we always average the absolute value of errors").
	AvgRelErrPct float64
	// MaxRelErrPct / MaxErrKernel identify the worst kernel.
	MaxRelErrPct float64
	MaxErrKernel string
	// DynAvgRelErrPct is the average relative error on dynamic power only
	// (paper: 28.3 % GT240, 20.9 % GTX580).
	DynAvgRelErrPct float64
	// OverestimatedFraction is the share of kernels where the simulator
	// overestimates (paper: nearly all).
	OverestimatedFraction float64
}

// benchWorkload wraps one Table I benchmark as a sweep workload: the units
// are the benchmark's launches in execution order (sharing one memory
// image), annotated with Figure 6's measurement policy — repeat-capped
// kernels keep their cap, everything else stretches to the reliable window.
func benchWorkload(f bench.Factory) *sweep.Workload {
	return &sweep.Workload{
		Name: f.Name,
		Build: func(cfg *config.GPU) (*sweep.Instance, error) {
			inst, err := f.Make()
			if err != nil {
				return nil, err
			}
			units := make([]sweep.Unit, len(inst.Runs))
			for i, r := range inst.Runs {
				units[i] = sweep.Unit{Name: r.Name, Launch: r.Launch, CMem: r.CMem, GapS: 0.01}
				if r.MaxRepeats > 0 {
					units[i].Repeats = r.MaxRepeats
				} else {
					units[i].MinWindowS = measureWindowS
				}
			}
			return &sweep.Instance{Mem: inst.Mem, Units: units, Verify: inst.Verify}, nil
		},
	}
}

// gpuAxis is the validated-GPUs axis shared by sweeps that run on both
// cards.
func gpuAxis() sweep.Axis {
	return sweep.Axis{Name: "gpu", Values: []sweep.Value{
		{Name: "GT240", Base: config.GT240},
		{Name: "GTX580", Base: config.GTX580},
	}}
}

// Fig6Spec declares the full Figure 6 validation grid: every Table I +
// needle benchmark simulated with GPUSimPow and measured on the matching
// virtual card, over both validated GPUs. Each (gpu, bench) cell is its own
// timing group; the simulator side fills the timing cache and the card side
// (whose silicon perturbation is power-only, hence timing-key-equal)
// replays it.
func Fig6Spec() *sweep.Spec {
	var benchVals []sweep.Value
	for _, f := range bench.Suite() {
		benchVals = append(benchVals, sweep.Value{Name: f.Name})
	}
	return &sweep.Spec{
		Name:  "fig6",
		Title: "Figure 6: simulated vs. measured power over the benchmark suite",
		Axes: []sweep.Axis{
			gpuAxis(),
			{Name: "bench", Values: benchVals},
		},
		Workload: func(c *sweep.Cell) (*sweep.Workload, error) {
			f, err := bench.ByName(c.Value("bench"))
			if err != nil {
				return nil, err
			}
			return benchWorkload(f), nil
		},
		Sim: true, Power: true, Verify: true, Measure: true,
		Session: func(c *sweep.Cell) string { return "fig6/" + c.Value("bench") },
	}
}

// fig6Agg is the per-kernel aggregate one benchmark cell contributes.
type fig6Agg struct {
	name                string
	simTotal, measTotal float64
	n                   int
	short               bool
}

// fig6Reduce folds the sweep's flat cell records into the figure:
// per-kernel aggregation in record (= cell) order — multi-launch kernels
// average arithmetically — against the per-card static power estimated
// with the methodology available for each card. Reducing from wire
// records rather than live results is what lets the service serve the
// same figure from a finished job's record stream, bit-identically.
func fig6Reduce(gpuName string, recs []*sweep.CellRecord) (*Fig6Result, error) {
	mk, ok := config.Presets()[gpuName]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown GPU %q", gpuName)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("experiments: fig6: no cell records for %s", gpuName)
	}

	// Simulated static power from the model, measured static power from the
	// card (paper Section IV-B / V-A), estimated once per card.
	ev, err := core.NewPowerEvaluator(mk())
	if err != nil {
		return nil, err
	}
	simStatic := ev.Static().StaticW
	card, err := hw.NewCard(mk())
	if err != nil {
		return nil, err
	}
	measStatic, err := measuredStaticFor(card)
	if err != nil {
		return nil, err
	}

	// Deterministic merge in record (= suite) order.
	perKernel := map[string]*fig6Agg{}
	var order []string
	for _, rec := range recs {
		for i := range rec.Units {
			ur := &rec.Units[i]
			if ur.Power == nil || ur.Meas == nil {
				return nil, fmt.Errorf("experiments: fig6: record %s unit %s missing power/measurement", rec.CoordString(), ur.Name)
			}
			a := perKernel[ur.Name]
			if a == nil {
				a = &fig6Agg{name: ur.Name}
				perKernel[ur.Name] = a
				order = append(order, ur.Name)
			}
			a.simTotal += ur.Power.TotalW + ur.Power.DRAMW
			a.measTotal += ur.Meas.AvgPowerW
			a.n++
			// The short-window flag matters only for kernels whose repeat
			// count is capped (in-place kernels that cannot be stretched).
			if ur.Meas.ShortWindow && ur.Repeats > 0 {
				a.short = true
			}
		}
	}

	res := &Fig6Result{GPU: gpuName}
	sort.Strings(order)
	var sumErr, sumDynErr float64
	over := 0
	for _, name := range order {
		a := perKernel[name]
		simTotal := a.simTotal / float64(a.n)
		measTotal := a.measTotal / float64(a.n)
		bar := Fig6Bar{
			Kernel:       name,
			SimStaticW:   simStatic,
			SimDynamicW:  simTotal - simStatic,
			MeasStaticW:  measStatic,
			MeasDynamicW: measTotal - measStatic,
			ShortWindow:  a.short,
			Executions:   a.n,
		}
		bar.RelErrPct = 100 * math.Abs(simTotal-measTotal) / measTotal
		res.Bars = append(res.Bars, bar)
		sumErr += bar.RelErrPct
		if bar.RelErrPct > res.MaxRelErrPct {
			res.MaxRelErrPct = bar.RelErrPct
			res.MaxErrKernel = name
		}
		if bar.MeasDynamicW > 0 {
			sumDynErr += 100 * math.Abs(bar.SimDynamicW-bar.MeasDynamicW) / bar.MeasDynamicW
		}
		if simTotal > measTotal {
			over++
		}
	}
	n := float64(len(res.Bars))
	res.AvgRelErrPct = sumErr / n
	res.DynAvgRelErrPct = sumDynErr / n
	res.OverestimatedFraction = float64(over) / n
	return res, nil
}

// measuredStaticFor applies the per-card static estimation methodology:
// frequency extrapolation on cards that support downclocking (GT240-class),
// the idle-ratio transfer method otherwise (GTX580-class, whose Linux driver
// "does not yet support changing the clock speed").
func measuredStaticFor(card *hw.Card) (float64, error) {
	if card.Name() != "GTX580" {
		return EstimateStaticByFrequency(card)
	}
	ref, err := hw.NewCard(config.GT240())
	if err != nil {
		return 0, err
	}
	refStatic, err := EstimateStaticByFrequency(ref)
	if err != nil {
		return 0, err
	}
	ratio := refStatic / (ref.PrePostKernelPowerW() + ref.DRAMIdleW())
	return (card.PrePostKernelPowerW() + card.DRAMIdleW()) * ratio, nil
}
