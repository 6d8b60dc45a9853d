package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"gpusimpow/internal/core"
	"gpusimpow/internal/hw"
	"gpusimpow/internal/power"
	"gpusimpow/internal/runner"
	"gpusimpow/internal/simcache"
)

// UnitResult is one kernel launch's outcome within a cell: the stages the
// spec enabled are filled, the rest stay nil.
type UnitResult struct {
	// Unit carries the launch metadata (name, measurement policy) of the
	// unit this result belongs to.
	Unit Unit
	// Timing is the group-shared timing snapshot (Sim specs). Cells of one
	// group share the pointer; treat it as read-only.
	Timing *simcache.TimingResult
	// Power is this cell's power report for the unit (Power specs).
	Power *power.RuntimeReport
	// Meas is this cell's measurement of the unit (Measure specs).
	Meas *hw.Measurement
}

// CellResult is one cell's outcome, in unit order.
type CellResult struct {
	Cell  *Cell
	Units []UnitResult
}

// Progress is one structured cell-completion event: a wire-representable
// snapshot of how far a sweep has come, carrying the completed cell's
// record rather than pointers into plan internals. Events arrive
// serialized and in plan order.
type Progress struct {
	// Scenario is the running spec's name.
	Scenario string `json:"scenario"`
	// Done and Total count completed and planned cells.
	Done  int `json:"done"`
	Total int `json:"total"`
	// TimingRuns is the plan's timing-group count.
	TimingRuns int `json:"timingRuns"`
	// CostFraction is the cost-weighted completion fraction in (0, 1],
	// from Plan.Cost's per-cell shares; 0 when the estimate is
	// unavailable.
	CostFraction float64 `json:"costFraction,omitempty"`
	// Cell is the just-completed cell's record.
	Cell *CellRecord `json:"cell"`
}

// progressHook is an optional process-wide observer of cell completions,
// installed by front-ends (cmd/gpowexp -v) to surface sweep progress
// without threading a callback through every scenario's reduction.
// Like Run's stream callback, it is invoked serialized and in plan order.
var progressHook atomic.Pointer[func(Progress)]

// SetProgress installs (or, with nil, removes) the process-wide progress
// observer.
func SetProgress(fn func(Progress)) {
	if fn == nil {
		progressHook.Store(nil)
		return
	}
	progressHook.Store(&fn)
}

// Run executes the plan and returns per-cell results in plan order. The
// optional stream callback receives each cell's result as soon as it — and
// every cell before it — is complete: calls are serialized and arrive in
// plan order, so a front-end can render progressively while the order stays
// deterministic. Groups fan out over internal/runner's worker pool; within
// a group the leader simulates once, every cell is priced by the batched
// power stage, and measured cells fan out again (each on its own
// deterministic card session).
func (p *Plan) Run(stream func(*CellResult)) ([]*CellResult, error) {
	return p.RunContext(context.Background(), stream)
}

// RunContext is Run with cancellation: the context is checked before every
// timing group and every per-cell assembly, so a canceled sweep stops at
// the next cell boundary and returns the context's error. Cells completed
// before cancellation have already been streamed; the returned slice is
// discarded (long-lived services keep the streamed records).
func (p *Plan) RunContext(ctx context.Context, stream func(*CellResult)) ([]*CellResult, error) {
	results := make([]*CellResult, len(p.Cells))
	emit := newEmitter(p, results, stream)

	if p.Spec.SharedCard {
		if err := p.runShared(ctx, emit); err != nil {
			return nil, err
		}
		return results, nil
	}

	err := runner.ForEach(len(p.Groups), func(gi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return p.runGroup(ctx, p.Groups[gi], emit)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// emitter gates streaming so results surface in plan order even though
// groups complete out of order.
type emitter struct {
	mu      sync.Mutex
	plan    *Plan
	results []*CellResult
	stream  func(*CellResult)
	next    int

	// Cost-weighted progress, computed lazily on the first hook delivery
	// (the estimate builds workload instances, so it only runs when an
	// observer actually wants percentages).
	costTried bool
	cost      *Cost
	costDone  float64
}

func newEmitter(p *Plan, results []*CellResult, stream func(*CellResult)) *emitter {
	return &emitter{plan: p, results: results, stream: stream}
}

// done records one finished cell and streams the contiguous completed
// prefix.
func (e *emitter) done(r *CellResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results[r.Cell.Index] = r
	hook := progressHook.Load()
	for e.next < len(e.results) && e.results[e.next] != nil {
		cr := e.results[e.next]
		if e.stream != nil {
			e.stream(cr)
		}
		if hook != nil {
			if !e.costTried {
				e.costTried = true
				e.cost, _ = e.plan.Cost() // best effort: nil leaves fractions 0
			}
			pr := Progress{
				Scenario:   e.plan.Spec.Name,
				Done:       e.next + 1,
				Total:      len(e.results),
				TimingRuns: len(e.plan.Groups),
				Cell:       e.plan.Record(cr),
			}
			if e.cost != nil {
				e.costDone += e.cost.PerCell[cr.Cell.Index]
				pr.CostFraction = e.costDone
			}
			(*hook)(pr)
		}
		e.next++
	}
}

// groupTiming is the shared outcome of one group's timing stage: the
// leader's simulator (its power model doubles as the leader cell's
// evaluator), the built units, and one timing snapshot per unit.
type groupTiming struct {
	simr    *core.Simulator
	units   []Unit
	timings []*simcache.TimingResult
}

// simGroupTiming runs the timing stage (and optional verification) on
// behalf of a group: its leader simulates every unit once, in order, on one
// shared memory image. All other cells of the group reuse these snapshots
// (their own simulation would replay bit-identically from the result cache
// anyway — the group saves the hashing and replay, and pins "one timing
// run per group" by construction), and so does each cell's virtual card
// while its timing key matches (see measureCell). Both execution paths
// (grouped fan-out and the SharedCard sequential path) go through here.
func (p *Plan) simGroupTiming(leader *Cell) (*groupTiming, error) {
	s := p.Spec
	simr, err := core.New(leader.Cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %s: %w", s.Name, leader, err)
	}
	inst, err := leader.Workload.Build(leader.Cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %s: building %s: %w", s.Name, leader, leader.Workload.Name, err)
	}
	gt := &groupTiming{simr: simr, units: inst.Units}
	gt.timings = make([]*simcache.TimingResult, len(gt.units))
	for i := range gt.units {
		u := &gt.units[i]
		tr, err := simr.Simulate(u.Launch, inst.Mem, u.CMem)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %s: simulating %s/%s: %w", s.Name, leader, leader.Workload.Name, u.Name, err)
		}
		gt.timings[i] = tr
	}
	if s.Verify && inst.Verify != nil {
		if err := inst.Verify(); err != nil {
			return nil, fmt.Errorf("sweep: %s: %s: %s failed verification: %w", s.Name, leader, leader.Workload.Name, err)
		}
	}
	return gt, nil
}

// runGroup executes one timing group: the leader's timing stage, the
// batched power stage across the group's cells, then the per-cell
// measurement fan-out.
func (p *Plan) runGroup(ctx context.Context, g *Group, emit *emitter) error {
	s := p.Spec
	leader := g.Leader()

	var gt *groupTiming
	var powerByUnit [][]*power.RuntimeReport
	if s.Sim {
		var err error
		gt, err = p.simGroupTiming(leader)
		if err != nil {
			return err
		}

		// Batched power stage: one shared timing result per unit, one power
		// evaluator per cell. The leader reuses the simulator's own model;
		// the other cells differ only in power-side parameters (that is what
		// put them in this group), so they need no timing machinery.
		if s.Power {
			evs := make([]*core.PowerEvaluator, len(g.Cells))
			evs[0] = gt.simr.PowerEvaluator()
			for ci := 1; ci < len(g.Cells); ci++ {
				ev, err := core.NewPowerEvaluator(g.Cells[ci].Cfg)
				if err != nil {
					return fmt.Errorf("sweep: %s: %s: %w", s.Name, g.Cells[ci], err)
				}
				evs[ci] = ev
			}
			powerByUnit = make([][]*power.RuntimeReport, len(gt.units))
			for i := range gt.units {
				rts, err := core.EvaluatePowerBatch(evs, gt.timings[i])
				if err != nil {
					return fmt.Errorf("sweep: %s: %s: unit %s: %w", s.Name, leader, gt.units[i].Name, err)
				}
				powerByUnit[i] = rts
			}
		}
	}

	// Per-cell assembly and measurement, fanned out when the group has
	// several cells (the DVFS pattern: one timing run, many measured
	// operating points).
	return runner.ForEach(len(g.Cells), func(ci int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := g.Cells[ci]
		cr := &CellResult{Cell: c}
		if gt != nil {
			for i := range gt.units {
				ur := UnitResult{Unit: gt.units[i], Timing: gt.timings[i]}
				if powerByUnit != nil {
					ur.Power = powerByUnit[i][ci]
				}
				cr.Units = append(cr.Units, ur)
			}
		}
		if s.Measure {
			if err := p.measureCell(c, nil, cr); err != nil {
				return err
			}
		}
		emit.done(cr)
		return nil
	})
}

// measureCell measures every unit of the cell on a virtual card: the cell's
// own session card unless a shared card is supplied. When the cell ran the
// timing stage on the card's timing key, the card prices the group's
// timing results and runs nothing; otherwise (Measure-only specs, or a
// shared card built for another timing key) the cell's units come from a
// fresh instance build and the card times them on its own silicon. Either
// way the units are issued as one measured sequence.
func (p *Plan) measureCell(c *Cell, card *hw.Card, cr *CellResult) error {
	s := p.Spec
	if card == nil {
		session := ""
		if s.Session != nil {
			session = s.Session(c)
		}
		var err error
		card, err = hw.NewCardSession(c.Cfg, session)
		if err != nil {
			return fmt.Errorf("sweep: %s: %s: %w", s.Name, c, err)
		}
	}
	if c.ClockScale != card.ClockScale() {
		if err := card.SetClockScale(c.ClockScale); err != nil {
			return fmt.Errorf("sweep: %s: %s: %w", s.Name, c, err)
		}
	}
	var items []hw.SeqItem
	if s.Sim && card.TimingKey() == c.Cfg.TimingKey() {
		items = make([]hw.SeqItem, len(cr.Units))
		for i := range cr.Units {
			u := &cr.Units[i].Unit
			items[i] = hw.SeqItem{
				Launch: u.Launch, Timing: cr.Units[i].Timing.Perf,
				Repeats: u.Repeats, MinWindowS: u.MinWindowS, GapS: u.GapS,
			}
		}
	} else {
		inst, err := c.Workload.Build(c.Cfg)
		if err != nil {
			return fmt.Errorf("sweep: %s: %s: building %s: %w", s.Name, c, c.Workload.Name, err)
		}
		items = make([]hw.SeqItem, len(inst.Units))
		for i := range inst.Units {
			u := &inst.Units[i]
			items[i] = hw.SeqItem{
				Launch: u.Launch, Mem: inst.Mem, CMem: u.CMem,
				Repeats: u.Repeats, MinWindowS: u.MinWindowS, GapS: u.GapS,
			}
		}
		if len(cr.Units) == 0 {
			// Measure-only spec: the units come from the measured instance.
			cr.Units = make([]UnitResult, len(inst.Units))
			for i := range inst.Units {
				cr.Units[i].Unit = inst.Units[i]
			}
		}
	}
	_, ms, err := card.MeasureSequence(items)
	if err != nil {
		return fmt.Errorf("sweep: %s: %s: measuring %s: %w", s.Name, c, c.Workload.Name, err)
	}
	for i := range ms {
		cr.Units[i].Meas = &ms[i]
	}
	return nil
}

// runShared executes a SharedCard plan strictly sequentially: one card,
// built from the first cell's configuration, measures every cell in plan
// order, so the rig's noise stream advances exactly as the reproduced
// methodology prescribes. The timing stage still runs per group leader —
// here each cell is usually its own group — and verification/power behave
// as in the grouped path.
func (p *Plan) runShared(ctx context.Context, emit *emitter) error {
	s := p.Spec
	session := ""
	if s.Session != nil {
		session = s.Session(p.Cells[0])
	}
	card, err := hw.NewCardSession(p.Cells[0].Cfg, session)
	if err != nil {
		return fmt.Errorf("sweep: %s: %w", s.Name, err)
	}

	// Timing results are shared per group even on the sequential path; the
	// timing stage itself is the same simGroupTiming the grouped path runs,
	// lazily on the first cell of each group the plan order reaches (the
	// group's leader, since both orders derive from cell order).
	timingByGroup := map[*Group]*groupTiming{}
	groupOf := map[*Cell]*Group{}
	for _, g := range p.Groups {
		for _, c := range g.Cells {
			groupOf[c] = g
		}
	}

	for _, c := range p.Cells {
		if err := ctx.Err(); err != nil {
			return err
		}
		g := groupOf[c]
		cr := &CellResult{Cell: c}
		if s.Sim {
			gt, ok := timingByGroup[g]
			if !ok {
				var err error
				gt, err = p.simGroupTiming(c)
				if err != nil {
					return err
				}
				timingByGroup[g] = gt
			}
			for i := range gt.units {
				cr.Units = append(cr.Units, UnitResult{Unit: gt.units[i], Timing: gt.timings[i]})
			}
			if s.Power {
				ev := gt.simr.PowerEvaluator()
				if c != g.Leader() {
					var err error
					ev, err = core.NewPowerEvaluator(c.Cfg)
					if err != nil {
						return fmt.Errorf("sweep: %s: %s: %w", s.Name, c, err)
					}
				}
				for i := range cr.Units {
					rt, err := ev.EvaluatePower(cr.Units[i].Timing)
					if err != nil {
						return fmt.Errorf("sweep: %s: %s: unit %s: %w", s.Name, c, cr.Units[i].Unit.Name, err)
					}
					cr.Units[i].Power = rt
				}
			}
		}
		if s.Measure {
			if err := p.measureCell(c, card, cr); err != nil {
				return err
			}
		}
		emit.done(cr)
	}
	return nil
}
