package sweep

import "fmt"

// Cost is a static estimate of what executing a plan will take, for
// scheduling, admission and progress reporting — the planner's counterpart
// of Plan.TimingRuns' dedup count. Nothing here is measured: the estimate
// derives from launch geometry and program length alone, so it is cheap,
// deterministic, and available before any simulation runs.
type Cost struct {
	// Cells and TimingRuns restate the plan's shape.
	Cells      int
	TimingRuns int
	// MeasuredCells is how many cells run the measurement stage.
	MeasuredCells int
	// EstCycles is the coarse total cost in estimated issue cycles: per
	// timing group, warps × program instructions summed over the group's
	// units, counted once for the timing stage and once per measured cell
	// (a measurement runs or prices the kernel on the virtual card). Loop trip
	// counts are invisible statically, so the estimate is a lower bound —
	// useful as a relative weight, not a wall-clock prediction.
	EstCycles uint64
	// PerCell is each cell's fractional share of EstCycles in plan order
	// (sums to 1): the weight progress reporting uses to turn "k of n
	// cells done" into a cost percentage.
	PerCell []float64
}

// Cost estimates the plan's execution cost, memoized on first use.
// Estimation builds each group leader's workload instance (pure
// construction — no simulation) to read launch geometry and program
// length. Builds are scenario-author code: a panicking one becomes the
// estimate's error, so no caller needs its own guard.
func (p *Plan) Cost() (*Cost, error) {
	p.costOnce.Do(func() {
		defer p.costKnown.Store(true)
		defer func() {
			if r := recover(); r != nil {
				p.cost, p.costErr = nil, fmt.Errorf("sweep: %s: cost estimation panicked: %v", p.Spec.Name, r)
			}
		}()
		p.cost, p.costErr = p.computeCost()
	})
	return p.cost, p.costErr
}

// KnownCost returns the estimate if Cost has already computed it, without
// computing or waiting for one: nil while no estimate has finished, and
// when estimation failed. A caller that must not block behind a workload
// build in flight (a status poll) reads this.
func (p *Plan) KnownCost() *Cost {
	if !p.costKnown.Load() {
		return nil
	}
	return p.cost
}

// Fraction is the cost-weighted completion fraction once the first done
// cells in plan order are complete: their PerCell shares summed in plan
// order.
func (c *Cost) Fraction(done int) float64 {
	var f float64
	for _, share := range c.PerCell[:done] {
		f += share
	}
	return f
}

func (p *Plan) computeCost() (*Cost, error) {
	s := p.Spec
	c := &Cost{
		Cells:      len(p.Cells),
		TimingRuns: len(p.Groups),
		PerCell:    make([]float64, len(p.Cells)),
	}
	if s.Measure {
		c.MeasuredCells = len(p.Cells)
	}
	var total float64
	for _, g := range p.Groups {
		leader := g.Leader()
		inst, err := leader.Workload.Build(leader.Cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: costing %s: %w", s.Name, leader, err)
		}
		var est float64
		for i := range inst.Units {
			u := &inst.Units[i]
			l := u.Launch
			// WarpsPerBlock is the simulator's own warp-formation rule, so
			// the estimate counts the warps that will actually run.
			warps := l.WarpsPerBlock() * l.Grid.Count()
			est += float64(warps * len(l.Prog.Instrs))
		}
		if est <= 0 {
			est = 1
		}
		// The timing stage runs once per group; its cost is shared evenly
		// by the cells that reuse the result. Measure-only specs (Sim
		// false) still pay it: the virtual card's true-power lookup
		// simulates the kernel through the result cache exactly once per
		// timing group, inside the group's first measurement. Each
		// measured cell then measures on its own virtual card (replaying
		// the kernel, or pricing the group's timing when the keys match),
		// counted as one full unit of work per cell.
		if s.Sim || s.Measure {
			share := est / float64(len(g.Cells))
			for _, cell := range g.Cells {
				c.PerCell[cell.Index] += share
			}
			total += est
		}
		if s.Measure {
			for _, cell := range g.Cells {
				c.PerCell[cell.Index] += est
			}
			total += est * float64(len(g.Cells))
		}
	}
	// total is always positive: Spec.validate rejects specs with neither
	// Sim nor Measure (the only way to plan is through it), and every
	// group contributes at least est = 1.
	c.EstCycles = uint64(total)
	for i := range c.PerCell {
		c.PerCell[i] /= total
	}
	return c, nil
}
