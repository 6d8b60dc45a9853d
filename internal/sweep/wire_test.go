package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// The wire-layer scenario used by Describe tests; registered once (the
// registry panics on duplicates).
func init() {
	Register(Scenario{
		Name: "wireprobe", Title: "wire-layer probe scenario",
		Spec: func() *Spec { return runSpec(2001) },
		Reduce: func([]*CellRecord, Filter) (*Report, error) {
			return &Report{Scenario: "wireprobe"}, nil
		},
	})
}

func TestJobRequestRoundTrip(t *testing.T) {
	in := JobRequest{
		Scenario: "fig6",
		Filter:   Filter{"gpu": {"GT240"}, "bench": {"bfs", "matrixMul"}},
		Label:    "ci-probe",
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out JobRequest
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the request: %+v -> %+v", in, out)
	}
}

func TestJobRequestPlanValidation(t *testing.T) {
	if _, err := (&JobRequest{}).Plan(); err == nil {
		t.Error("empty request should not plan")
	}
	if _, err := (&JobRequest{Scenario: "no-such-scenario"}).Plan(); err == nil {
		t.Error("unknown scenario should not plan")
	}
	bad := &JobRequest{Scenario: "wireprobe", Filter: Filter{"clusters": {"99"}}}
	if _, err := bad.Plan(); err == nil {
		t.Error("invalid filter value should not plan")
	}
	good := &JobRequest{Scenario: "wireprobe", Filter: Filter{"clusters": {"2"}}}
	p, err := good.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != 3 {
		t.Errorf("filtered plan has %d cells, want 3", len(p.Cells))
	}
}

// Records must carry coordinates, metrics and group provenance, survive a
// JSON round trip bit-identically, and share no memory with the plan.
func TestCellRecordRoundTrip(t *testing.T) {
	p, err := runSpec(2002).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Records(rs)
	if len(recs) != len(p.Cells) {
		t.Fatalf("%d records, want %d", len(recs), len(p.Cells))
	}
	for i, rec := range recs {
		cell := p.Cells[i]
		if rec.Index != i || rec.Scenario != p.Spec.Name {
			t.Fatalf("record %d misidentifies itself: %+v", i, rec)
		}
		if rec.CoordString() != cell.String() {
			t.Errorf("record %d coords %q, want %q", i, rec.CoordString(), cell.String())
		}
		if rec.Group != cell.Group || rec.GroupLeader != p.Groups[cell.Group].Leader().Index {
			t.Errorf("record %d group provenance %d/%d, want %d/%d",
				i, rec.Group, rec.GroupLeader, cell.Group, p.Groups[cell.Group].Leader().Index)
		}
		u := rec.Units[0]
		if u.Timing == nil || u.Power == nil {
			t.Fatalf("record %d missing stage metrics", i)
		}
		if u.Timing.Cycles == 0 || u.Power.TotalW <= 0 {
			t.Errorf("record %d carries empty metrics: %+v", i, u)
		}
		if len(u.Timing.TimingKey) != 64 || len(u.Timing.MemHash) != 64 {
			t.Errorf("record %d: want hex content key and mem hash, got %q / %q",
				i, u.Timing.TimingKey, u.Timing.MemHash)
		}

		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var back CellRecord
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rec, back) {
			t.Errorf("record %d changed across the wire:\n have %+v\n want %+v", i, back, *rec)
		}
	}
	// Cells of one timing group share the timing key; across groups the
	// keys differ (cluster count is timing-relevant, process node is not).
	if recs[0].Units[0].Timing.TimingKey != recs[1].Units[0].Timing.TimingKey {
		t.Error("grouped cells should share the timing key")
	}
	if recs[0].Units[0].Timing.TimingKey == recs[3].Units[0].Timing.TimingKey {
		t.Error("distinct timing groups must not share timing keys")
	}
}

func TestDescribe(t *testing.T) {
	info, err := Describe("wireprobe")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sweep {
		t.Fatal("wireprobe should describe as a sweep")
	}
	if info.Cells != 6 || info.TimingRuns != 2 {
		t.Errorf("describe reports %d cells / %d timing runs, want 6 / 2", info.Cells, info.TimingRuns)
	}
	if info.MeasuredCells != 0 {
		t.Errorf("describe reports %d measured cells for a sim-only sweep", info.MeasuredCells)
	}
	wantAxes := []AxisInfo{
		{Name: "clusters", Values: []ValueInfo{{Name: "2"}, {Name: "3"}}},
		{Name: "node", Values: []ValueInfo{{Name: "40nm"}, {Name: "32nm"}, {Name: "28nm"}}},
	}
	if !reflect.DeepEqual(info.Axes, wantAxes) {
		t.Errorf("axes %+v, want %+v", info.Axes, wantAxes)
	}
	if _, err := Describe("no-such-scenario"); err == nil {
		t.Error("describing an unknown scenario should error")
	}
}

// Structured progress events arrive serialized, in plan order, with
// monotonically complete counters.
func TestProgressEvents(t *testing.T) {
	var events []Progress
	SetProgress(func(pr Progress) { events = append(events, pr) })
	defer SetProgress(nil)

	p, err := runSpec(2004).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(p.Cells) {
		t.Fatalf("%d progress events, want %d", len(events), len(p.Cells))
	}
	for i, pr := range events {
		if pr.Done != i+1 || pr.Total != len(p.Cells) || pr.TimingRuns != p.TimingRuns() {
			t.Errorf("event %d counters %+v", i, pr)
		}
		if pr.Cell == nil || pr.Cell.Index != i {
			t.Fatalf("event %d carries wrong cell: %+v", i, pr.Cell)
		}
	}
	if last := events[len(events)-1]; last.Done != last.Total {
		t.Errorf("final event %d/%d, want every cell done", last.Done, last.Total)
	}
}

func TestRunContextCancel(t *testing.T) {
	p, err := runSpec(2005).Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunContext(ctx, nil); err == nil {
		t.Error("canceled context should abort the run")
	}
}

// Progress events round-trip through JSON unchanged — they are the
// payload of the service's NDJSON event stream, where a resuming client
// re-reads previously delivered lines and must see identical values.
func TestProgressRoundTrip(t *testing.T) {
	in := Progress{
		Scenario:   "wireprobe",
		Done:       3,
		Total:      5,
		TimingRuns: 2,
		Cell: &CellRecord{
			Scenario:   "wireprobe",
			Index:      2,
			Coords:     []Coord{{Axis: "gpu", Value: "GT240"}},
			Config:     "GT240",
			Workload:   "probe",
			ClockScale: 1,
			Units:      []UnitRecord{},
		},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Progress
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the event:\n %+v\n-> %+v", in, out)
	}
}
