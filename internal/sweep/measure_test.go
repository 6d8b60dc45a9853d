package sweep

import (
	"reflect"
	"strings"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/hw"
)

// measuredProbeSpec is a Sim+Measure spec over the probe workload, each
// cell on its own card session, with a window long enough to span several
// noise blocks.
func measuredProbeSpec(seed int32, axis Axis) *Spec {
	return &Spec{
		Name:    "measureprobe",
		Axes:    []Axis{axis},
		Base:    config.GT240,
		Sim:     true,
		Measure: true,
		Session: func(c *Cell) string { return c.String() },
		Workload: func(*Cell) (*Workload, error) {
			return &Workload{
				Name: "sweepProbe",
				Build: func(*config.GPU) (*Instance, error) {
					l, mem := probeKernel(seed)
					return &Instance{Mem: mem, Units: []Unit{{Name: l.Prog.Name, Launch: l, MinWindowS: 0.05}}}, nil
				},
			}, nil
		},
	}
}

// measureLaunch measures a freshly built probe launch on the card, timing
// it on the card's own silicon (the launch form of hw.SeqItem).
func measureLaunch(t *testing.T, card *hw.Card, seed int32) hw.Measurement {
	t.Helper()
	l, mem := probeKernel(seed)
	_, ms, err := card.MeasureSequence([]hw.SeqItem{{Launch: l, Mem: mem, MinWindowS: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	return ms[0]
}

// TestMeasureCellItemSources pins both sources of a measured cell's items
// against the card timing its own launches: cells whose configuration has
// the card's timing key hand it the group's timing results, and the
// measurements must not move by a bit; a shared card built for another
// timing key still times the cell's units itself.
func TestMeasureCellItemSources(t *testing.T) {
	t.Run("timing-equal", func(t *testing.T) {
		const seed = 1101
		p, err := measuredProbeSpec(seed, Axis{Name: "node", Values: []Value{
			{Name: "40nm"},
			{Name: "28nm", Mutate: func(g *config.GPU) { g.ProcessNM = 28 }},
		}}).Plan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.TimingRuns() != 1 {
			t.Fatalf("%d timing groups, want 1", p.TimingRuns())
		}
		rs, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range rs {
			card, err := hw.NewCardSession(cr.Cell.Cfg, cr.Cell.String())
			if err != nil {
				t.Fatal(err)
			}
			if want := measureLaunch(t, card, seed); !reflect.DeepEqual(*cr.Units[0].Meas, want) {
				t.Errorf("cell %s: measured %+v from group timing, %+v from the card's own run", cr.Cell, *cr.Units[0].Meas, want)
			}
		}
	})

	t.Run("timing-distinct", func(t *testing.T) {
		const seed = 1102
		s := measuredProbeSpec(seed, Axis{Name: "clusters", Values: []Value{
			{Name: "2", Mutate: func(g *config.GPU) { g.Clusters = 2 }},
			{Name: "4", Mutate: func(g *config.GPU) { g.Clusters = 4 }},
		}})
		s.SharedCard = true
		p, err := s.Plan(nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.TimingRuns() != 2 {
			t.Fatalf("%d timing groups, want 2", p.TimingRuns())
		}
		rs, err := p.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Replay the shared card's session: both cells in plan order, each
		// launch timed on the card's (first cell's) silicon.
		first := p.Cells[0]
		card, err := hw.NewCardSession(first.Cfg, first.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range rs {
			if want := measureLaunch(t, card, seed); !reflect.DeepEqual(*cr.Units[0].Meas, want) {
				t.Errorf("cell %s: measured %+v, the shared card's own run gives %+v", cr.Cell, *cr.Units[0].Meas, want)
			}
		}

		// Pricing the second group's timing on that card measures something
		// else: the sweep must not have done so.
		other, err := hw.NewCardSession(first.Cfg, first.String())
		if err != nil {
			t.Fatal(err)
		}
		measureLaunch(t, other, seed)
		u := rs[1].Units[0]
		_, ms, err := other.MeasureSequence([]hw.SeqItem{{Launch: u.Unit.Launch, Timing: u.Timing.Perf, MinWindowS: 0.05}})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(ms[0], *u.Meas) {
			t.Errorf("cell %s: the sweep's measurement equals pricing the other group's timing on the shared card", rs[1].Cell)
		}
	})
}

// clustersAxis varies the cluster count, a timing-relevant field: each
// value is its own timing group.
func clustersAxis() Axis {
	return Axis{Name: "clusters", Values: []Value{
		{Name: "2", Mutate: func(g *config.GPU) { g.Clusters = 2 }},
		{Name: "4", Mutate: func(g *config.GPU) { g.Clusters = 4 }},
	}}
}

// TestSharedCardMeasuresInPlanOrder: a SharedCard plan whose timing groups
// interleave in plan order ({0,2} and {1,3}) measures its cells one after
// another in plan order on the one card, whatever order the groups finish
// in. Measuring group by group (0, 2, 1, 3) advances the card's noise
// stream in another order and fails.
func TestSharedCardMeasuresInPlanOrder(t *testing.T) {
	const seed = 1103
	s := measuredProbeSpec(seed, Axis{Name: "rep", Values: []Value{{Name: "a"}, {Name: "b"}}})
	s.Axes = append(s.Axes, clustersAxis())
	s.SharedCard = true
	p, err := s.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	var groups []int
	for _, c := range p.Cells {
		groups = append(groups, c.Group)
	}
	if !reflect.DeepEqual(groups, []int{0, 1, 0, 1}) {
		t.Fatalf("cell groups %v, want interleaved [0 1 0 1]", groups)
	}
	rs, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Cells[0]
	card, err := hw.NewCardSession(first.Cfg, first.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs {
		if want := measureLaunch(t, card, seed); !reflect.DeepEqual(*cr.Units[0].Meas, want) {
			t.Errorf("cell %s: measured %+v, the shared card's session in plan order gives %+v", cr.Cell, *cr.Units[0].Meas, want)
		}
	}
}

// TestSharedCardMeasurementError: a shared-card measurement that fails
// partway through the plan (a clock scale the card rejects) is Run's
// error, and exactly the cells before it have streamed.
func TestSharedCardMeasurementError(t *testing.T) {
	s := measuredProbeSpec(1104, clustersAxis())
	s.Axes = append(s.Axes, Axis{Name: "scale", Values: []Value{
		{Name: "1.0", ClockScale: 1.0},
		{Name: "0.4", ClockScale: 0.4},
	}})
	s.SharedCard = true
	p, err := s.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []int
	_, err = p.Run(func(cr *CellResult) { streamed = append(streamed, cr.Cell.Index) })
	if err == nil || !strings.Contains(err.Error(), p.Cells[1].String()) || !strings.Contains(err.Error(), "clock scale") {
		t.Fatalf("Run error %v, want the clock-scale failure of cell %s", err, p.Cells[1])
	}
	if !reflect.DeepEqual(streamed, []int{0}) {
		t.Errorf("streamed cells %v, want exactly [0]", streamed)
	}
}
