package sweep

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Scenario is a named, runnable experiment. Sweep scenarios carry their
// Spec (so front-ends can show axes and validate filters); table-style
// scenarios that are not grid sweeps register with a nil Spec.
type Scenario struct {
	Name  string
	Title string
	// Spec is the scenario's sweep specification (nil for non-sweeps). It
	// must build the same specification on every call: JobRequest.Plan
	// plans each request once per process. State a workload reads when
	// it builds or runs is not part of the specification.
	Spec func() *Spec
	// Reduce (required) folds one completed run's cell records into the
	// scenario's typed Report (see report.go). Sweep-backed scenarios
	// receive the run's full record stream — the same records whether the
	// run was in-process or streamed by a daemon; table-style scenarios
	// compute from scratch and receive nil. The filter is the run's
	// filter, so a reducer can reject restrictions that would bias its
	// aggregates.
	// Composites build their combined report here (the "ablation"
	// scenario concatenates its five studies' sections).
	Reduce func(recs []*CellRecord, f Filter) (*Report, error)
	// CheckFilter validates a filter before any sweep executes, on top of
	// the planner's axis/value validation: consulted by JobRequest.Plan
	// (so a daemon rejects the submission synchronously) and BuildReport
	// (so a local run fails before simulating). Scenarios whose
	// reductions need specific grid shapes reject here — fig6 restricts
	// filtering to whole sub-figures, energyperop needs its unfiltered
	// 31-vs-1 pairing. Nil accepts any planner-valid filter.
	CheckFilter func(f Filter) error
}

var (
	regMu    sync.Mutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the process-wide registry; duplicate,
// anonymous or reduction-less registrations are programming errors and
// panic at init time.
func Register(sc Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if sc.Name == "" || sc.Reduce == nil {
		panic("sweep: registering an incomplete scenario")
	}
	if _, dup := registry[sc.Name]; dup {
		panic(fmt.Sprintf("sweep: duplicate scenario %q", sc.Name))
	}
	registry[sc.Name] = sc
}

// Scenarios returns every registered scenario, name-sorted.
func Scenarios() []Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	sc, ok := registry[name]
	return sc, ok
}

// BuildReport runs the named scenario in-process and reduces it to its
// typed report: for sweep-backed scenarios the plan executes (filtered)
// and its flat cell records feed the Reduce hook — exactly the records a
// daemon would have streamed, so the report is bit-identical to the one
// GET /v1/jobs/{id}/report serves for the same request.
func BuildReport(name string, f Filter) (*Report, error) {
	sc, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sweep: %w %q (see `gpowexp list`)", ErrUnknownScenario, name)
	}
	if sc.CheckFilter != nil {
		if err := sc.CheckFilter(f); err != nil {
			return nil, err
		}
	}
	var recs []*CellRecord
	if sc.Spec != nil {
		plan, err := sc.Spec().Plan(f)
		if err != nil {
			return nil, err
		}
		rs, err := plan.Run(nil)
		if err != nil {
			return nil, err
		}
		recs = plan.Records(rs)
	} else if len(f) > 0 {
		return nil, fmt.Errorf("sweep: scenario %q has no axes to filter", name)
	}
	return sc.Reduce(recs, f)
}

// RunScenario runs one scenario by name and renders its report as text —
// the front door cmd/gpowexp dispatches through.
func RunScenario(w io.Writer, name string, f Filter) error {
	rep, err := BuildReport(name, f)
	if err != nil {
		return err
	}
	return RenderText(w, rep)
}
