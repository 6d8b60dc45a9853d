package experiments

import (
	"fmt"
	"math"
	"sort"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/sweep"
)

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
// timing group; the card (whose silicon perturbation is power-only, hence
// timing-key-equal) prices the group's timing results with its silicon
// model instead of running the kernels again.
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
		Sim: true, Power: true, Measure: true,
		Session: func(c *sweep.Cell) string { return "fig6/" + c.Value("bench") },
	}
}

// fig6CheckFilter restricts Figure 6 filtering to whole sub-figures:
// non-gpu axes (e.g. bench=...) would silently bias the error aggregates.
// Axes are checked in sorted order so the reported offender is stable
// across runs (map order would pick one at random).
func fig6CheckFilter(f sweep.Filter) error {
	axes := make([]string, 0, len(f))
	for axis := range f {
		axes = append(axes, axis)
	}
	sort.Strings(axes)
	for _, axis := range axes {
		if axis != "gpu" {
			return fmt.Errorf("experiments: fig6 filters on gpu only (got %s=...)", axis)
		}
	}
	return nil
}

// reduceFig6 folds the validation grid's records into one sub-figure per
// admitted GPU (both when unfiltered), in GPU order.
func reduceFig6(recs []*sweep.CellRecord, f sweep.Filter) (*sweep.Report, error) {
	if err := fig6CheckFilter(f); err != nil {
		return nil, err
	}
	gpus := f["gpu"]
	if len(gpus) == 0 {
		gpus = []string{"GT240", "GTX580"}
	}
	byGPU := map[string][]*sweep.CellRecord{}
	for _, rec := range recs {
		var gpu string
		for _, co := range rec.Coords {
			if co.Axis == "gpu" {
				gpu = co.Value
			}
		}
		byGPU[gpu] = append(byGPU[gpu], rec)
	}
	rep := &sweep.Report{Scenario: "fig6"}
	for i, gpu := range gpus {
		sec, err := fig6Section(gpu, byGPU[gpu], i > 0)
		if err != nil {
			return nil, err
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

// fig6Agg is the per-kernel aggregate one benchmark cell contributes.
type fig6Agg struct {
	simTotal, measTotal float64
	n                   int
	short               bool
}

// fig6Section folds one GPU's cell records into its sub-figure: one bar
// pair per kernel (multi-launch kernels average arithmetically, in record
// = cell order) against the model's static power and the card's static
// power estimated by measuredStaticW (paper Section IV-B / V-A), then the
// error aggregates. Errors are averaged as absolute values ("when
// averaging errors, we always average the absolute value of errors").
// Reducing from wire records rather than live results is what lets the
// service serve the same figure from a finished job's record stream,
// bit-identically.
func fig6Section(gpu string, recs []*sweep.CellRecord, gap bool) (sweep.Section, error) {
	mk, ok := config.Presets()[gpu]
	if !ok {
		return sweep.Section{}, fmt.Errorf("experiments: unknown GPU %q", gpu)
	}
	if len(recs) == 0 {
		return sweep.Section{}, fmt.Errorf("experiments: fig6: no cell records for %s", gpu)
	}
	ev, err := core.NewPowerEvaluator(mk())
	if err != nil {
		return sweep.Section{}, err
	}
	simStatic := ev.Static().StaticW
	measStatic, _, err := measuredStaticW(gpu)
	if err != nil {
		return sweep.Section{}, err
	}

	perKernel := map[string]*fig6Agg{}
	var order []string
	for _, rec := range recs {
		for i := range rec.Units {
			ur := &rec.Units[i]
			if ur.Power == nil || ur.Meas == nil {
				return sweep.Section{}, fmt.Errorf("experiments: fig6: record %s unit %s missing power/measurement", rec.CoordString(), ur.Name)
			}
			a := perKernel[ur.Name]
			if a == nil {
				a = &fig6Agg{}
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

	sub := map[string]string{"GT240": "6a", "GTX580": "6b"}[gpu]
	sec := sweep.Section{
		Gap:   gap,
		Title: fmt.Sprintf("Figure %s: simulated vs. measured power, %s", sub, gpu),
		Columns: []sweep.Column{
			{Label: "Kernel", Format: "%-14s"},
			{Label: "SimStat", Unit: "W", Format: "%10.2f", Head: "%10s"},
			{Label: "SimDyn", Unit: "W", Format: "%10.2f", Head: "%10s"},
			{Label: "MeasStat", Unit: "W", Format: "%10.2f", Head: "%10s"},
			{Label: "MeasDyn", Unit: "W", Format: "%10.2f", Head: "%10s"},
			{Label: "Err%", Unit: "%", Format: "%7.1f", Head: "%7s"},
			{Label: "", Format: "%s"},
		},
		Header: true,
	}
	sort.Strings(order)
	var sumErr, sumDynErr, maxErr float64
	var maxKernel string
	over := 0
	for _, name := range order {
		a := perKernel[name]
		simTotal := a.simTotal / float64(a.n)
		measTotal := a.measTotal / float64(a.n)
		simDyn, measDyn := simTotal-simStatic, measTotal-measStatic
		relErr := 100 * math.Abs(simTotal-measTotal) / measTotal
		note := ""
		if a.short {
			note = "(short measurement window)"
		}
		sec.Rows = append(sec.Rows, []sweep.Datum{
			sweep.Str(name), sweep.Num(simStatic), sweep.Num(simDyn),
			sweep.Num(measStatic), sweep.Num(measDyn), sweep.Num(relErr), sweep.Str(note),
		})
		sumErr += relErr
		if relErr > maxErr {
			maxErr, maxKernel = relErr, name
		}
		if measDyn > 0 {
			sumDynErr += 100 * math.Abs(simDyn-measDyn) / measDyn
		}
		if simTotal > measTotal {
			over++
		}
	}
	n := float64(len(order))
	sec.Notes = []sweep.Note{
		sweep.Notef("average relative error: %.1f%% (paper: %s)", sweep.Num(sumErr/n),
			sweep.Str(map[string]string{"GT240": "11.7%", "GTX580": "10.8%"}[gpu])),
		sweep.Notef("dynamic-only average relative error: %.1f%% (paper: %s)", sweep.Num(sumDynErr/n),
			sweep.Str(map[string]string{"GT240": "28.3%", "GTX580": "20.9%"}[gpu])),
		sweep.Notef("max relative error: %.1f%% on %s", sweep.Num(maxErr), sweep.Str(maxKernel)),
		sweep.Notef("kernels overestimated: %.0f%%", sweep.Num(100*(float64(over)/n))),
	}
	return sec, nil
}
