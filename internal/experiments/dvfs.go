package experiments

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sweep"
)

// ---------------------------------------------------------------------------
// E11 (extension): DVFS energy study — the same clock-scaling mechanism the
// static-power methodology uses (Section IV-B), swept across the supported
// range to chart the energy/performance trade-off of frequency scaling on
// the virtual card.
// ---------------------------------------------------------------------------

// DVFSPoint is one operating point of the sweep.
type DVFSPoint struct {
	ClockScale float64
	// PowerW is the measured average power while the kernel runs.
	PowerW float64
	// KernelSeconds is one execution's duration at this clock.
	KernelSeconds float64
	// EnergyMJ is the energy of one kernel execution in millijoules.
	EnergyMJ float64
}

// DVFSResult is the full sweep.
type DVFSResult struct {
	Points []DVFSPoint
	// MinEnergyScale is the clock scale with the lowest kernel energy: with
	// large static power, racing to idle usually wins, so this tends to sit
	// at or near full clock.
	MinEnergyScale float64
}

// fpBusyWorkload is the compute-bound kernel occupying every core of the
// configured card (one resident block per core... times two, fully unrolled
// inner loop), measured over the reliable 150 ms window.
var fpBusyWorkload = &sweep.Workload{
	Name: "fpBusy",
	Build: func(cfg *config.GPU) (*sweep.Instance, error) {
		l, mem := busyFPKernel(cfg.NumCores()*2, 256, 40)
		return &sweep.Instance{Mem: mem, Units: []sweep.Unit{
			{Name: l.Prog.Name, Launch: l, MinWindowS: 0.150},
		}}, nil
	},
}

// DVFSSpec declares the clock-scale sweep on the virtual GT240: six
// operating points, each measured on its own card session. Cycle counts are
// clock-invariant (the card applies clock scaling analytically), so the
// planner folds all six cells into one timing group — the sweep simulates
// the kernel once and measures six times.
func DVFSSpec() *sweep.Spec {
	var vals []sweep.Value
	for _, s := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		vals = append(vals, sweep.Value{Name: fmt.Sprintf("%.1f", s), ClockScale: s})
	}
	return &sweep.Spec{
		Name:     "dvfs",
		Title:    "DVFS energy study: compute-bound kernel across clock scales (GT240)",
		Axes:     []sweep.Axis{{Name: "scale", Values: vals}},
		Base:     config.GT240,
		Workload: func(*sweep.Cell) (*sweep.Workload, error) { return fpBusyWorkload, nil },
		Measure:  true,
		Session:  func(c *sweep.Cell) string { return "dvfs/" + c.Value("scale") },
	}
}

// dvfsReduce folds the sweep's flat cell records into the energy curve —
// the one reduction the CLI report and the service's wire report both go
// through.
func dvfsReduce(recs []*sweep.CellRecord) (*DVFSResult, error) {
	res := &DVFSResult{MinEnergyScale: 1}
	best := 0.0
	for _, rec := range recs {
		if len(rec.Units) == 0 || rec.Units[0].Meas == nil {
			return nil, fmt.Errorf("experiments: dvfs: record %s carries no measurement", rec.CoordString())
		}
		m := rec.Units[0].Meas
		pt := DVFSPoint{
			ClockScale:    rec.ClockScale,
			PowerW:        m.AvgPowerW,
			KernelSeconds: m.KernelSeconds,
			EnergyMJ:      m.AvgPowerW * m.KernelSeconds * 1e3,
		}
		res.Points = append(res.Points, pt)
		if best == 0 || pt.EnergyMJ < best {
			best = pt.EnergyMJ
			res.MinEnergyScale = pt.ClockScale
		}
	}
	return res, nil
}
