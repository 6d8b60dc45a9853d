package experiments

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sweep"
)

// L1SchedSpec declares a genuinely new two-axis design-space study on the
// sweep engine — the ROADMAP's "new scenarios are now ~30 lines" claim,
// and the service's cheap demo workload: L1 data-cache size × warp
// scheduler policy on a GTX580-class core, driven by the reuse-heavy
// kernel the L2 ablation uses (scattered gathers over a 64 KB array, the
// access pattern whose hit rate an L1 actually moves). Both axes are
// timing-relevant, so every cell is its own timing group.
func L1SchedSpec() *sweep.Spec {
	var l1 []sweep.Value
	for _, kb := range []int{0, 16, 32, 48} {
		kb := kb
		name := fmt.Sprintf("%dKB", kb)
		if kb == 0 {
			name = "none"
		}
		l1 = append(l1, sweep.Value{Name: name, Mutate: func(c *config.GPU) {
			c.Name += "-l1." + name
			c.L1KB = kb
		}})
	}
	var sched []sweep.Value
	for _, pol := range []string{"rr", "gto", "twolevel"} {
		pol := pol
		sched = append(sched, sweep.Value{Name: pol, Mutate: func(c *config.GPU) {
			c.Name += "-" + pol
			c.SchedulerPolicy = pol
		}})
	}
	return &sweep.Spec{
		Name:  "l1sched",
		Title: "Extension: L1 size x scheduler policy on a reuse-heavy workload (GTX580)",
		Axes: []sweep.Axis{
			{Name: "l1", Values: l1},
			{Name: "sched", Values: sched},
		},
		Base:     config.GTX580,
		Workload: func(*sweep.Cell) (*sweep.Workload, error) { return l2ReuseWorkload, nil },
		Sim:      true, Power: true,
	}
}

// reduceL1Sched folds the grid's flat cell records into one row per cell,
// in plan order (optionally filtered on either axis) — shared by the CLI
// report and the service's wire report.
func reduceL1Sched(recs []*sweep.CellRecord, _ sweep.Filter) (*sweep.Report, error) {
	sec := sweep.Section{
		Title: "Extension: L1 size x warp scheduler policy, reuse-heavy workload (GTX580)",
		Columns: []sweep.Column{
			{Label: "L1", Format: "%-6s"},
			{Label: "Sched", Format: "%-9s"},
			{Label: "Cycles", Unit: "cycles", Format: "%10d", Head: "%10s"},
			{Label: "L1 hit", Unit: "%", Format: "%7.1f%%", Head: "%8s"},
			{Label: "Total W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Dyn W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Stat W", Unit: "W", Format: "%9.2f", Head: "%9s"},
			{Label: "Energy mJ", Unit: "mJ", Format: "%10.3f", Head: "%10s"},
		},
		Header: true,
	}
	for _, rec := range recs {
		if len(rec.Units) == 0 || rec.Units[0].Timing == nil || rec.Units[0].Power == nil {
			return nil, fmt.Errorf("experiments: l1sched: record %s missing timing/power", rec.CoordString())
		}
		u := &rec.Units[0]
		var l1, sched string
		for _, co := range rec.Coords {
			switch co.Axis {
			case "l1":
				l1 = co.Value
			case "sched":
				sched = co.Value
			}
		}
		sec.Rows = append(sec.Rows, []sweep.Datum{
			sweep.Str(l1), sweep.Str(sched), sweep.Uint(u.Timing.Cycles), sweep.Num(100 * u.Timing.L1HitRate),
			sweep.Num(u.Power.TotalW), sweep.Num(u.Power.DynamicW), sweep.Num(u.Power.StaticW),
			sweep.Num(u.Power.TotalW * u.Power.Seconds * 1e3),
		})
	}
	return &sweep.Report{Scenario: "l1sched", Sections: []sweep.Section{sec}}, nil
}
