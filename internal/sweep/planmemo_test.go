package sweep

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// memoSpecs counts memoprobe's Spec calls.
var memoSpecs atomic.Int32

func init() {
	Register(Scenario{
		Name: "memoprobe", Title: "plan-memo probe",
		Spec: func() *Spec {
			memoSpecs.Add(1)
			s := planSpec()
			s.Name = "memoprobe"
			return s
		},
		Reduce: func([]*CellRecord, Filter) (*Report, error) {
			return &Report{Scenario: "memoprobe"}, nil
		},
	})
}

// samePlan reports how a memoized plan differs from a fresh one ("" when
// it does not): cells, their configurations, groups, timing keys and the
// routing key.
func samePlan(got, want *Plan) string {
	if len(got.Cells) != len(want.Cells) || len(got.Groups) != len(want.Groups) {
		return "shape"
	}
	for i, c := range got.Cells {
		w := want.Cells[i]
		if c.Index != w.Index || c.String() != w.String() || *c.Cfg != *w.Cfg || c.ClockScale != w.ClockScale ||
			c.Group != w.Group || c.timingKey != w.timingKey || c.Workload.Name != w.Workload.Name {
			return "cell " + c.String()
		}
	}
	for gi, g := range got.Groups {
		for ci, c := range g.Cells {
			if c.Index != want.Groups[gi].Cells[ci].Index {
				return "group membership"
			}
		}
	}
	if got.RoutingKey() != want.RoutingKey() {
		return "routing key"
	}
	return ""
}

// Concurrent first calls for one request return one plan, equal to a
// fresh Spec().Plan, and a request that lists the same values in another
// order gets it too.
func TestPlanMemoConcurrentCallsShareOnePlan(t *testing.T) {
	m := &planMemo{max: 8}
	req := JobRequest{Scenario: "memoprobe", Filter: Filter{"node": {"28nm", "40nm"}}}
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := m.get(&req)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	for _, p := range plans {
		if p != plans[0] {
			t.Fatal("concurrent calls for one request returned different plans")
		}
	}
	fresh, err := planSpec().Plan(req.Filter)
	if err != nil {
		t.Fatal(err)
	}
	if diff := samePlan(plans[0], fresh); diff != "" {
		t.Errorf("memoized plan differs from a fresh one in its %s", diff)
	}

	before := memoSpecs.Load()
	reordered := JobRequest{Scenario: "memoprobe", Filter: Filter{"node": {"40nm", "28nm"}}, Label: "other"}
	if p, err := m.get(&reordered); err != nil || p != plans[0] {
		t.Errorf("reordered filter: %v, want the memoized plan", err)
	}
	if n := memoSpecs.Load() - before; n != 0 {
		t.Errorf("a memo hit called Spec %d times", n)
	}
}

// A request that fails to plan is never stored: each call plans it again
// and fails again.
func TestPlanMemoStoresNoFailure(t *testing.T) {
	m := &planMemo{max: 8}
	before := memoSpecs.Load()
	for _, req := range []JobRequest{
		{Scenario: "memoprobe", Filter: Filter{"node": {"7nm"}}},
		{Scenario: "memoprobe", Filter: Filter{"node": {}}}, // admits no cell
		{Scenario: "no-such-scenario"},
	} {
		for range 2 {
			if _, err := m.get(&req); err == nil {
				t.Errorf("%+v planned", req)
			}
		}
	}
	if len(m.plans) != 0 {
		t.Errorf("memo holds %d plans after failures only", len(m.plans))
	}
	if n := memoSpecs.Load() - before; n != 4 {
		t.Errorf("two tries each of two failing memoprobe requests called Spec %d times, want 4", n)
	}
}

// A store into a full memo starts a fresh one.
func TestPlanMemoResetsWhenFull(t *testing.T) {
	m := &planMemo{max: 2}
	reqs := []JobRequest{
		{Scenario: "memoprobe", Filter: Filter{"node": {"40nm"}}},
		{Scenario: "memoprobe", Filter: Filter{"node": {"32nm"}}},
		{Scenario: "memoprobe", Filter: Filter{"node": {"28nm"}}},
	}
	first, err := m.get(&reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if _, err := m.get(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.plans) != 1 {
		t.Errorf("memo holds %d plans after overflowing a cap of 2, want 1", len(m.plans))
	}
	again, err := m.get(&reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("a request the reset dropped still returned its old plan")
	}
	if diff := samePlan(again, first); diff != "" {
		t.Errorf("re-planned request differs in its %s", diff)
	}
}

// planKey ignores value and axis order, and keeps apart requests that
// plan differently.
func TestPlanKey(t *testing.T) {
	same := [][2]Filter{
		{nil, {}},
		{{"a": {"x", "y"}, "b": {"z"}}, {"b": {"z"}, "a": {"y", "x"}}},
	}
	for _, p := range same {
		if planKey("s", p[0]) != planKey("s", p[1]) {
			t.Errorf("%v and %v key apart", p[0], p[1])
		}
	}
	differ := [][2]Filter{
		{nil, {"a": {}}},
		{{"a": {"x,y"}}, {"a": {"x", "y"}}},
		{{"a": {"x"}, "b": {"y"}}, {"a": {"x\" \"b\"=\"y"}}},
	}
	for _, p := range differ {
		if planKey("s", p[0]) == planKey("s", p[1]) {
			t.Errorf("%v and %v share key %s", p[0], p[1], planKey("s", p[0]))
		}
	}
	if planKey("s", nil) == planKey("t", nil) {
		t.Error("scenario name is not in the key")
	}
}

// JobRequest.Plan goes through the process-wide memo.
func TestJobRequestPlanIsMemoized(t *testing.T) {
	req := JobRequest{Scenario: "memoprobe", Filter: Filter{"clusters": {"3"}}}
	p1, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("two plans of one request differ")
	}
	if !reflect.DeepEqual(coordsOf(p1), []string{"clusters=3 node=40nm", "clusters=3 node=32nm", "clusters=3 node=28nm"}) {
		t.Errorf("memoized plan cells %v", coordsOf(p1))
	}
}
