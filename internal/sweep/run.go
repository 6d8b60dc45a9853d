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

// progressHook is an optional process-wide observer of cell completions,
// installed by front-ends (cmd/gpowexp -v) to surface sweep progress
// without threading a callback through every scenario's reduction. It
// receives the plan's cell count and the completed cell's record — the
// record a gpowd job streams on /cells for the same cell. Like Run's
// stream callback, it is invoked serialized and in plan order.
var progressHook atomic.Pointer[func(total int, rec *CellRecord)]

// SetProgress installs (or, with nil, removes) the process-wide progress
// observer.
func SetProgress(fn func(total int, rec *CellRecord)) {
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
// a group the leader simulates once, and the cells fan out again, each
// priced against the group's timing results and measured on its own
// deterministic card session. A SharedCard plan measures every cell on one
// card instead, as the cell reaches the head of plan order.
func (p *Plan) Run(stream func(*CellResult)) ([]*CellResult, error) {
	return p.RunContext(context.Background(), stream)
}

// RunContext is Run with cancellation: the context is checked before every
// timing group and every per-cell assembly, so a canceled sweep stops at
// the next cell boundary and returns the context's error. Cells completed
// before cancellation have already been streamed; the returned slice is
// discarded (long-lived services keep the streamed records).
func (p *Plan) RunContext(ctx context.Context, stream func(*CellResult)) ([]*CellResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*CellResult, len(p.Cells))
	emit := &emitter{plan: p, results: results, stream: stream, cancel: cancel}
	if p.Spec.SharedCard && p.Spec.Measure {
		card, err := p.sessionCard(p.Cells[0])
		if err != nil {
			return nil, err
		}
		emit.card = card
	}

	err := runner.ForEach(len(p.Groups), func(gi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return p.runGroup(ctx, p.Groups[gi], emit)
	})
	if emit.err != nil {
		// A shared-card measurement failed and canceled the other groups:
		// report the measurement, not the cancellation it caused.
		err = emit.err
	}
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

	// card, when set, is the SharedCard plan's one rig: each cell is
	// measured on it as the cell reaches the head of plan order, so the
	// rig's noise stream advances in plan order whatever order the groups
	// finish in. The first failure sticks in err, stops streaming and
	// cancels the remaining groups.
	card   *hw.Card
	err    error
	cancel context.CancelFunc
}

// done records one finished cell and streams the contiguous completed
// prefix, measuring each of its cells first on a shared card.
func (e *emitter) done(r *CellResult) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	e.results[r.Cell.Index] = r
	hook := progressHook.Load()
	for e.next < len(e.results) && e.results[e.next] != nil {
		cr := e.results[e.next]
		if e.card != nil {
			if err := e.plan.measureCell(cr.Cell, e.card, cr); err != nil {
				e.err = err
				e.cancel()
				return err
			}
		}
		if e.stream != nil {
			e.stream(cr)
		}
		if hook != nil {
			(*hook)(len(e.plan.Cells), e.plan.Record(cr))
		}
		e.next++
	}
	return nil
}

// groupTiming is the shared outcome of one group's timing stage: the built
// units and one timing snapshot per unit.
type groupTiming struct {
	units   []Unit
	timings []*simcache.TimingResult
}

// simGroupTiming runs the timing stage on behalf of a group: its leader
// simulates every unit once, in order, on one shared memory image, then
// checks the functional output when the workload supplies Instance.Verify.
// All other cells of the group reuse these snapshots (their own simulation
// would replay bit-identically from the result cache anyway — the group
// saves the hashing and replay, and pins "one timing run per group" by
// construction), and so does each measuring card while its timing key
// matches (see measureCell).
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
	gt := &groupTiming{units: inst.Units}
	gt.timings = make([]*simcache.TimingResult, len(gt.units))
	for i := range gt.units {
		u := &gt.units[i]
		tr, err := simr.Simulate(u.Launch, inst.Mem, u.CMem)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: %s: simulating %s/%s: %w", s.Name, leader, leader.Workload.Name, u.Name, err)
		}
		gt.timings[i] = tr
	}
	if inst.Verify != nil {
		if err := inst.Verify(); err != nil {
			return nil, fmt.Errorf("sweep: %s: %s: %s failed verification: %w", s.Name, leader, leader.Workload.Name, err)
		}
	}
	return gt, nil
}

// runGroup executes one timing group: the leader's timing stage, then the
// per-cell fan-out (the DVFS pattern: one timing run, many measured
// operating points). Each cell prices the group's timing results with its
// own configuration's power model — the cells differ only in power-side
// parameters, which is what put them in one group — and, unless the plan
// shares one card, measures on its own session. Simulators, power models
// and card silicon are built once per configuration value and shared
// (config.Memo); a cell owns only its results and its card session.
func (p *Plan) runGroup(ctx context.Context, g *Group, emit *emitter) error {
	s := p.Spec
	var gt *groupTiming
	if s.Sim {
		var err error
		if gt, err = p.simGroupTiming(g.Leader()); err != nil {
			return err
		}
	}
	return runner.ForEach(len(g.Cells), func(ci int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := g.Cells[ci]
		cr := &CellResult{Cell: c}
		if gt != nil {
			var ev *core.PowerEvaluator
			if s.Power {
				var err error
				if ev, err = core.NewPowerEvaluator(c.Cfg); err != nil {
					return fmt.Errorf("sweep: %s: %s: %w", s.Name, c, err)
				}
			}
			cr.Units = make([]UnitResult, len(gt.units))
			for i := range gt.units {
				ur := &cr.Units[i]
				*ur = UnitResult{Unit: gt.units[i], Timing: gt.timings[i]}
				if ev != nil {
					rt, err := ev.EvaluatePower(ur.Timing)
					if err != nil {
						return fmt.Errorf("sweep: %s: %s: unit %s: %w", s.Name, c, ur.Unit.Name, err)
					}
					ur.Power = rt
				}
			}
		}
		if s.Measure && emit.card == nil {
			if err := p.measureCell(c, nil, cr); err != nil {
				return err
			}
		}
		return emit.done(cr)
	})
}

// sessionCard builds the virtual card for the cell's configuration on the
// session tag the spec derives for it.
func (p *Plan) sessionCard(c *Cell) (*hw.Card, error) {
	session := ""
	if p.Spec.Session != nil {
		session = p.Spec.Session(c)
	}
	card, err := hw.NewCardSession(c.Cfg, session)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %s: %w", p.Spec.Name, c, err)
	}
	return card, nil
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
		var err error
		if card, err = p.sessionCard(c); err != nil {
			return err
		}
	}
	if c.ClockScale != card.ClockScale() {
		if err := card.SetClockScale(c.ClockScale); err != nil {
			return fmt.Errorf("sweep: %s: %s: %w", s.Name, c, err)
		}
	}
	var items []hw.SeqItem
	if s.Sim && card.TimingKey() == c.timingKey {
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
	ms, err := card.Measure(items)
	if err != nil {
		return fmt.Errorf("sweep: %s: %s: measuring %s: %w", s.Name, c, c.Workload.Name, err)
	}
	for i := range ms {
		cr.Units[i].Meas = &ms[i]
	}
	return nil
}
