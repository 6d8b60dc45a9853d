package sweep

import (
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"gpusimpow/internal/simcache"
)

// ErrUnknownScenario marks resolution failures against the scenario
// registry, so transports can map them to "not found" without matching
// message text.
var ErrUnknownScenario = errors.New("unknown scenario")

// This file is the sweep engine's wire layer: JSON-representable,
// self-describing counterparts of the in-process types, stable enough to
// cross a process boundary. The in-process path (Spec/Plan/CellResult) is
// unchanged and stays bit-identical; the wire types are derived views.
//
//   - JobRequest names a registered scenario plus a filter: everything a
//     remote front-end needs to submit a sweep.
//   - ScenarioInfo (Describe/DescribeAll) is scenario metadata — axes,
//     values, plan size, timing runs, measured cells — computed from the
//     plan alone, without building a workload or running any simulation.
//   - CellRecord/UnitRecord flatten one CellResult into plain values:
//     axis coordinates, per-unit timing/power/measurement metrics, and
//     cache/timing-group provenance (the content-addressed timing key and
//     the plan's group partition). Records carry only deterministic
//     quantities — cache hit/miss status is a performance artifact of
//     process state and deliberately stays out, so a local run and a
//     remote run of the same plan produce bit-identical records.

// JobRequest is the wire form of one sweep submission: a registered
// scenario name, an optional axis filter, and client options.
type JobRequest struct {
	// Scenario is the registered scenario name ("fig6", "dvfs", ...). The
	// scenario must be sweep-backed (carry a Spec); table-style printables
	// have no cells to stream.
	Scenario string `json:"scenario"`
	// Filter optionally restricts the sweep's axes, with the same
	// semantics (and validation) as the CLI's -filter flag.
	Filter Filter `json:"filter,omitempty"`
	// Label is an optional client-supplied tag echoed back in job status.
	Label string `json:"label,omitempty"`
}

// Plan resolves the request against the scenario registry and plans it:
// the one validation + planning path both the service and remote-capable
// front-ends share. Unknown scenarios, non-sweep scenarios and invalid
// filters are errors.
//
// Plans are memoized per process by scenario name and filter (see
// planMemo): a fleet router and the daemons behind it plan each distinct
// request once, however many jobs submit it. The plan is shared, so
// callers must treat it as read-only, as Run and Record do.
func (r *JobRequest) Plan() (*Plan, error) {
	return jobPlans.get(r)
}

// plan is Plan without the memo.
func (r *JobRequest) plan() (*Plan, error) {
	if r.Scenario == "" {
		return nil, fmt.Errorf("sweep: job request without a scenario name")
	}
	sc, ok := Lookup(r.Scenario)
	if !ok {
		return nil, fmt.Errorf("sweep: %w %q", ErrUnknownScenario, r.Scenario)
	}
	if sc.Spec == nil {
		return nil, fmt.Errorf("sweep: scenario %q is not a sweep (no cells to stream)", r.Scenario)
	}
	if sc.CheckFilter != nil {
		// Scenario-specific filter constraints fail the submission here,
		// synchronously — not after the sweep has simulated (the reducers
		// re-validate as defense in depth, but a filter the reduction will
		// reject must never be admitted as a job).
		if err := sc.CheckFilter(r.Filter); err != nil {
			return nil, err
		}
	}
	return sc.Spec().Plan(r.Filter)
}

// jobPlans is JobRequest.Plan's process-wide memo.
var jobPlans = planMemo{max: 256}

// planMemo holds the plans of the requests a process planned, keyed by
// planKey. A plan is a pure function of its scenario's spec and the
// filter, a scenario's Spec builds the same spec on every call, and the
// registry never replaces a scenario, so a stored plan is the plan a
// fresh Spec().Plan would build. Like config.Memo it is
// bounded: requests come from clients, so a store into a full memo
// starts a fresh one. Only plans that built without error are stored.
type planMemo struct {
	max   int
	mu    sync.Mutex
	plans map[string]*Plan
}

// get returns the memoized plan for r, planning it on a miss. The plan
// is built outside the lock; when concurrent first callers race, the
// first to store wins and the others return the stored plan.
func (m *planMemo) get(r *JobRequest) (*Plan, error) {
	key := planKey(r.Scenario, r.Filter)
	m.mu.Lock()
	p, ok := m.plans[key]
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := r.plan()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.plans[key]; ok {
		return first, nil
	}
	if m.plans == nil || len(m.plans) >= m.max {
		m.plans = make(map[string]*Plan)
	}
	m.plans[key] = p
	return p, nil
}

// planKey is the memo key of a scenario and filter: the quoted scenario
// name, then each axis in sorted order with its values sorted, every
// name quoted so that different names never run together into one key. The filter admits a value
// whatever its position in the list, and no CheckFilter depends on
// order, so requests that differ only in order plan alike. An axis with
// no values (which admits nothing) keys apart from an absent one.
func planKey(scenario string, f Filter) string {
	b := strconv.AppendQuote(nil, scenario)
	for _, axis := range slices.Sorted(maps.Keys(f)) {
		b = append(b, ' ')
		b = strconv.AppendQuote(b, axis)
		b = append(b, '=')
		for _, v := range slices.Sorted(slices.Values(f[axis])) {
			b = strconv.AppendQuote(b, v)
		}
	}
	return string(b)
}

// ValueInfo is one axis value in scenario metadata.
type ValueInfo struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
}

// AxisInfo is one axis in scenario metadata.
type AxisInfo struct {
	Name   string      `json:"name"`
	Values []ValueInfo `json:"values"`
}

// ScenarioInfo is the wire form of one registered scenario: identity, axes
// and the unfiltered plan's shape. It is produced without executing any
// simulation or building any workload instance (planning builds
// configurations only).
type ScenarioInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	// Sweep reports whether the scenario is sweep-backed and therefore
	// submittable as a job; table-style printables are listed with Sweep
	// false and no axes.
	Sweep bool       `json:"sweep"`
	Axes  []AxisInfo `json:"axes,omitempty"`
	// Cells and TimingRuns describe the unfiltered plan: how many grid
	// points it enumerates and how many timing simulations those points
	// deduplicate into.
	Cells      int `json:"cells,omitempty"`
	TimingRuns int `json:"timingRuns,omitempty"`
	// MeasuredCells is the number of cells the measurement stage runs on
	// (0 for sim/power-only sweeps).
	MeasuredCells int `json:"measuredCells,omitempty"`
}

// Describe returns the named scenario's metadata. Sweep-backed scenarios
// are planned (unfiltered) so the listing can report plan size and
// timing-run dedup; nothing builds or simulates.
func Describe(name string) (*ScenarioInfo, error) {
	sc, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sweep: %w %q", ErrUnknownScenario, name)
	}
	info := &ScenarioInfo{Name: sc.Name, Title: sc.Title}
	if sc.Spec == nil {
		return info, nil
	}
	sp := sc.Spec()
	info.Sweep = true
	for _, ax := range sp.Axes {
		ai := AxisInfo{Name: ax.Name}
		for i := range ax.Values {
			v := &ax.Values[i]
			vi := ValueInfo{Name: v.Name}
			if l := v.DisplayLabel(); l != v.Name {
				vi.Label = l
			}
			ai.Values = append(ai.Values, vi)
		}
		info.Axes = append(info.Axes, ai)
	}
	plan, err := sp.Plan(nil)
	if err != nil {
		return nil, fmt.Errorf("sweep: describing %s: %w", name, err)
	}
	info.Cells = len(plan.Cells)
	info.TimingRuns = plan.TimingRuns()
	if sp.Measure {
		info.MeasuredCells = info.Cells
	}
	return info, nil
}

// DescribeAll returns metadata for every registered scenario, name-sorted.
func DescribeAll() ([]*ScenarioInfo, error) {
	var out []*ScenarioInfo
	for _, sc := range Scenarios() {
		info, err := Describe(sc.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// CellRecord is the wire form of one cell's outcome: flat, self-describing
// and deterministic. A remote consumer reconstructs everything the
// in-process CellResult exposes except live pointers into plan internals.
type CellRecord struct {
	// Scenario is the spec name the cell belongs to.
	Scenario string `json:"scenario"`
	// Index is the cell's position in the filtered plan (stream order).
	Index int `json:"index"`
	// Coords holds one axis assignment per declared axis, in axis order.
	Coords []Coord `json:"coords"`
	// Config is the cell configuration's display name.
	Config string `json:"config"`
	// Workload is the cell's workload name.
	Workload string `json:"workload"`
	// ClockScale is the measured clock scale (1 when no axis set one).
	ClockScale float64 `json:"clockScale"`
	// Group and GroupLeader are the timing-group provenance: the index of
	// the cell's timing group (leader order) and the cell index of the
	// group's leader — the cell whose configuration ran the timing stage
	// this cell's results derive from.
	Group       int `json:"group"`
	GroupLeader int `json:"groupLeader"`
	// Units holds one record per kernel launch, in unit order.
	Units []UnitRecord `json:"units"`
}

// CoordString renders the record's coordinates ("gpu=GT240 bench=bfs"),
// mirroring Cell.String.
func (r *CellRecord) CoordString() string {
	parts := make([]string, len(r.Coords))
	for i, co := range r.Coords {
		parts[i] = co.Axis + "=" + co.Value
	}
	return strings.Join(parts, " ")
}

// UnitRecord is one kernel launch's wire outcome within a cell. Stages the
// spec did not enable stay nil.
type UnitRecord struct {
	Name string `json:"name"`
	// Repeats/MinWindowS/GapS echo the unit's measurement policy.
	Repeats    int     `json:"repeats,omitempty"`
	MinWindowS float64 `json:"minWindowS,omitempty"`
	GapS       float64 `json:"gapS,omitempty"`

	Timing *TimingRecord `json:"timing,omitempty"`
	Power  *PowerRecord  `json:"power,omitempty"`
	Meas   *MeasRecord   `json:"meas,omitempty"`
}

// TimingRecord is the wire form of the group-shared timing snapshot.
type TimingRecord struct {
	Cycles       uint64  `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	WarpInstrs   uint64  `json:"warpInstrs"`
	ThreadInstrs uint64  `json:"threadInstrs"`
	// IntThreadInstrs/FPThreadInstrs/SFUThreadInstrs split ThreadInstrs by
	// execution-unit class — what the lane-differencing reduction divides
	// measured energy deltas by.
	IntThreadInstrs uint64  `json:"intThreadInstrs,omitempty"`
	FPThreadInstrs  uint64  `json:"fpThreadInstrs,omitempty"`
	SFUThreadInstrs uint64  `json:"sfuThreadInstrs,omitempty"`
	IPC             float64 `json:"ipc"`
	L1HitRate       float64 `json:"l1HitRate"`
	L2HitRate       float64 `json:"l2HitRate"`
	ConstHitRate    float64 `json:"constHitRate"`
	OccupancyPct    float64 `json:"occupancyPct"`
	// TimingKey is the hex content address the timing run is cached under
	// (empty when the simulation cache is disabled). Equal keys are the
	// engine's guarantee of bit-identical timing results — the cache
	// provenance a remote consumer can correlate across jobs.
	TimingKey string `json:"timingKey,omitempty"`
	// MemHash is the hex fingerprint of the final global-memory image, the
	// determinism contract's functional-output witness (empty when the
	// cache is disabled).
	MemHash string `json:"memHash,omitempty"`
}

// ItemRecord is one row of a power breakdown.
type ItemRecord struct {
	Name     string  `json:"name"`
	StaticW  float64 `json:"staticW"`
	DynamicW float64 `json:"dynamicW"`
}

// PowerRecord is the wire form of one cell's power report for a unit.
type PowerRecord struct {
	Seconds  float64 `json:"seconds"`
	StaticW  float64 `json:"staticW"`
	DynamicW float64 `json:"dynamicW"`
	TotalW   float64 `json:"totalW"`
	DRAMW    float64 `json:"dramW"`
	// GPU and Core are the chip-level and single-core breakdowns of the
	// paper's Table V structure.
	GPU  []ItemRecord `json:"gpu,omitempty"`
	Core []ItemRecord `json:"core,omitempty"`
}

// MeasRecord is the wire form of one unit's virtual-card measurement.
type MeasRecord struct {
	AvgPowerW     float64 `json:"avgPowerW"`
	EnergyJ       float64 `json:"energyJ"`
	WindowS       float64 `json:"windowS"`
	KernelSeconds float64 `json:"kernelSeconds"`
	ShortWindow   bool    `json:"shortWindow,omitempty"`
}

// Record flattens one cell result into its wire record. The record is a
// deep copy — it shares no memory with the plan or the result, so it can
// outlive both (the service accumulates records while the sweep runs on).
func (p *Plan) Record(cr *CellResult) *CellRecord {
	c := cr.Cell
	rec := &CellRecord{
		Scenario:    p.Spec.Name,
		Index:       c.Index,
		Coords:      append([]Coord(nil), c.Coords...),
		Config:      c.Cfg.Name,
		Workload:    c.Workload.Name,
		ClockScale:  c.ClockScale,
		Group:       c.Group,
		GroupLeader: p.Groups[c.Group].Leader().Index,
	}
	rec.Units = make([]UnitRecord, len(cr.Units))
	for i := range cr.Units {
		u := &cr.Units[i]
		ur := UnitRecord{
			Name:       u.Unit.Name,
			Repeats:    u.Unit.Repeats,
			MinWindowS: u.Unit.MinWindowS,
			GapS:       u.Unit.GapS,
		}
		if u.Timing != nil {
			perf := u.Timing.Perf
			tr := &TimingRecord{
				Cycles:          perf.Activity.Cycles,
				Seconds:         perf.Seconds,
				WarpInstrs:      perf.WarpInstrs,
				ThreadInstrs:    perf.ThreadInstrs,
				IntThreadInstrs: perf.Activity.IntThreadInstrs,
				FPThreadInstrs:  perf.Activity.FPThreadInstrs,
				SFUThreadInstrs: perf.Activity.SFUThreadInstrs,
				IPC:             perf.IPC,
				L1HitRate:       perf.L1HitRate,
				L2HitRate:       perf.L2HitRate,
				ConstHitRate:    perf.ConstHitRate,
				OccupancyPct:    perf.OccupancyPct,
			}
			if u.Timing.Key != (simcache.Key{}) {
				tr.TimingKey = hex.EncodeToString(u.Timing.Key[:])
				tr.MemHash = hex.EncodeToString(u.Timing.MemHash[:])
			}
			ur.Timing = tr
		}
		if u.Power != nil {
			pr := &PowerRecord{
				Seconds:  u.Power.Seconds,
				StaticW:  u.Power.StaticW,
				DynamicW: u.Power.DynamicW,
				TotalW:   u.Power.TotalW,
				DRAMW:    u.Power.DRAMW,
			}
			for _, it := range u.Power.GPU {
				pr.GPU = append(pr.GPU, ItemRecord{Name: it.Name, StaticW: it.StaticW, DynamicW: it.DynamicW})
			}
			for _, it := range u.Power.Core {
				pr.Core = append(pr.Core, ItemRecord{Name: it.Name, StaticW: it.StaticW, DynamicW: it.DynamicW})
			}
			ur.Power = pr
		}
		if u.Meas != nil {
			ur.Meas = &MeasRecord{
				AvgPowerW:     u.Meas.AvgPowerW,
				EnergyJ:       u.Meas.EnergyJ,
				WindowS:       u.Meas.WindowS,
				KernelSeconds: u.Meas.TrueKernelSeconds,
				ShortWindow:   u.Meas.ShortWindow,
			}
		}
		rec.Units[i] = ur
	}
	return rec
}

// Records flattens a full result slice in plan order.
func (p *Plan) Records(rs []*CellResult) []*CellRecord {
	out := make([]*CellRecord, len(rs))
	for i, cr := range rs {
		out[i] = p.Record(cr)
	}
	return out
}
