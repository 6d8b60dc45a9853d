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
	w := kernelWorkload(l2ReuseKernel)
	return &sweep.Spec{
		Name:  "l1sched",
		Title: "Extension: L1 size x scheduler policy on a reuse-heavy workload (GTX580)",
		Axes: []sweep.Axis{
			{Name: "l1", Values: l1},
			{Name: "sched", Values: sched},
		},
		Base:     config.GTX580,
		Workload: func(*sweep.Cell) (*sweep.Workload, error) { return w, nil },
		Sim:      true, Power: true,
	}
}

// L1SchedRow is one grid point's outcome.
type L1SchedRow struct {
	L1, Sched string
	Cycles    uint64
	L1HitRate float64
	TotalW    float64
	DynamicW  float64
	StaticW   float64
	EnergyMJ  float64
}

// l1SchedReduce folds the grid's flat cell records into one row per cell,
// in plan order — shared by the CLI report and the service's wire report.
func l1SchedReduce(recs []*sweep.CellRecord) ([]L1SchedRow, error) {
	rows := make([]L1SchedRow, len(recs))
	for i, rec := range recs {
		if len(rec.Units) == 0 || rec.Units[0].Timing == nil || rec.Units[0].Power == nil {
			return nil, fmt.Errorf("experiments: l1sched: record %s missing timing/power", rec.CoordString())
		}
		u := &rec.Units[0]
		row := L1SchedRow{
			Cycles:    u.Timing.Cycles,
			L1HitRate: u.Timing.L1HitRate,
			TotalW:    u.Power.TotalW,
			DynamicW:  u.Power.DynamicW,
			StaticW:   u.Power.StaticW,
			EnergyMJ:  u.Power.TotalW * u.Power.Seconds * 1e3,
		}
		for _, co := range rec.Coords {
			switch co.Axis {
			case "l1":
				row.L1 = co.Value
			case "sched":
				row.Sched = co.Value
			}
		}
		rows[i] = row
	}
	return rows, nil
}
