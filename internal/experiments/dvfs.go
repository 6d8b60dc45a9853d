package experiments

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sweep"
)

// ---------------------------------------------------------------------------
// E11 (extension): DVFS energy study — the same clock-scaling mechanism the
// static-power methodology uses (Section IV-B), swept across the supported
// range to chart the energy/performance trade-off of frequency scaling on
// the virtual card.
// ---------------------------------------------------------------------------

// fpBusy is the compute-bound kernel occupying every core of the
// configured card (one resident block per core... times two, fully unrolled
// inner loop), measured over the reliable fpBusyWindowS window.
func fpBusy(cfg *config.GPU) (*kernel.Launch, *kernel.GlobalMem) {
	return busyFPKernel(cfg.NumCores()*2, 256, 40)
}

const fpBusyWindowS = 0.150

// fpBusyWorkload is fpBusy as the DVFS sweep's workload.
var fpBusyWorkload = hostWorkload("fpBusy", fpBusyWindowS, fpBusy)

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

// reduceDVFS folds the sweep's flat cell records into the energy curve —
// the one reduction the CLI report and the service's wire report both go
// through; a scale filter restricts the measured operating points. With
// large static power, racing to idle usually wins, so the energy-optimal
// clock tends to sit at or near full clock.
func reduceDVFS(recs []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	sec := sweep.Section{
		Title: "DVFS sweep: compute-bound kernel on the virtual GT240",
		Columns: []sweep.Column{
			{Label: "Clock", Unit: "%", Format: "%7.0f%%", Head: "%8s"},
			{Label: "Power W", Unit: "W", Format: "%10.2f", Head: "%10s"},
			{Label: "Kernel s", Unit: "s", Format: "%12.3g", Head: "%12s"},
			{Label: "Energy mJ", Unit: "mJ", Format: "%11.4f", Head: "%11s"},
		},
		Header: true,
	}
	minScale, best := 1.0, 0.0
	for _, rec := range recs {
		if len(rec.Units) == 0 || rec.Units[0].Meas == nil {
			return nil, fmt.Errorf("experiments: dvfs: record %s carries no measurement", rec.CoordString())
		}
		m := rec.Units[0].Meas
		energyMJ := m.AvgPowerW * m.KernelSeconds * 1e3
		sec.Rows = append(sec.Rows, []sweep.Datum{
			sweep.Num(rec.ClockScale * 100), sweep.Num(m.AvgPowerW), sweep.Num(m.KernelSeconds), sweep.Num(energyMJ),
		})
		if best == 0 || energyMJ < best {
			best, minScale = energyMJ, rec.ClockScale
		}
	}
	sec.Notes = []sweep.Note{sweep.Notef("energy-optimal clock: %.0f%% (leakage-dominated cards race to idle)",
		sweep.Num(minScale*100))}
	return &sweep.Report{Scenario: "dvfs", Sections: []sweep.Section{sec}}, nil
}
