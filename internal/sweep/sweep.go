// Package sweep is the declarative grid-sweep engine behind the experiment
// suite. The paper's evaluation — Figure 6's validation grid, the DVFS
// study, the process-node and design-choice ablations, the energy-per-op
// microbenchmark — is in every case a sweep over named axes (GPUs, kernels,
// clock scales, tech nodes, power-calibration variants). Instead of each
// experiment hand-rolling nested loops, job construction and result
// plumbing, an experiment declares a Spec; the engine then
//
//   - enumerates the cartesian product of the axes in deterministic
//     row-major order (Plan), optionally restricted by a Filter,
//   - partitions the cells into timing groups by config.GPU.TimingKey() and
//     workload, so each distinct timing configuration simulates exactly
//     once per sweep (the planner's explicit counterpart of the
//     content-addressed cache in internal/simcache),
//   - executes the plan over internal/runner's worker pool: the group
//     leader runs the timing stage, then every cell of the group prices
//     that one shared TimingResult under its own power model and, for
//     measured sweeps, is measured on its own deterministic virtual-card
//     session — or, for a SharedCard spec, on the plan's one card as the
//     cell reaches the head of plan order,
//   - streams per-cell results in plan order (Run's stream callback) and
//     returns them in the same deterministic order.
//
// Scenario registration (registry.go) names runnable sweeps so front-ends
// like cmd/gpowexp can list, filter and run them without hard-wired
// dispatch.
package sweep

import (
	"fmt"
	"sort"
	"strings"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// Workload is a named, deterministic kernel workload. Build must return a
// fresh Instance on every call (instances are mutated by execution), derive
// everything it reads from timing-relevant configuration fields only (two
// configurations with equal timing keys must build identical instances —
// that contract is what lets the planner share one timing run across a
// group), and be safe to call concurrently.
type Workload struct {
	// Name identifies the workload; cells with equal timing keys and equal
	// workload names land in one timing group, so distinct workloads must
	// carry distinct names within a sweep.
	Name string
	// Build materializes the workload for one configuration.
	Build func(cfg *config.GPU) (*Instance, error)
}

// Instance is one materialized workload: an ordered list of kernel launches
// sharing one global-memory image (later launches see earlier results, as on
// real hardware).
type Instance struct {
	Mem   *kernel.GlobalMem
	Units []Unit
	// Verify checks the functional output after the timing stage
	// (optional): the group leader's instance is checked, and replayed
	// cells are bit-identical by the cache's determinism contract.
	Verify func() error
}

// Unit is one kernel launch of an instance, plus its measurement policy.
type Unit struct {
	Name   string
	Launch *kernel.Launch
	CMem   *kernel.ConstMem

	// Repeats caps/back-to-backs the measured executions; 0 lets MinWindowS
	// auto-size the window (see hw.SeqItem).
	Repeats int
	// MinWindowS is the minimum measurement window when Repeats is 0.
	MinWindowS float64
	// GapS is the idle gap after the kernel in a measured sequence.
	GapS float64
}

// Value is one labelled point on an axis. A value may replace the cell's
// base configuration (Base), mutate it (Mutate), and/or set the measured
// clock scale; pure-label values (all fields zero) are coordinates only,
// interpreted by the spec's Workload selector or reducer.
type Value struct {
	// Name is the filterable identity of the value ("GT240", "0.8", "28nm").
	Name string
	// Label is the display form; empty defaults to Name.
	Label string
	// Base supplies a fresh base configuration, replacing whatever earlier
	// axes built. At most one axis of a spec should carry Base values.
	Base func() *config.GPU
	// Mutate adjusts the configuration; applied after every Base, in axis
	// order.
	Mutate func(*config.GPU)
	// ClockScale sets the cell's measured clock scale (0 = inherit nominal).
	ClockScale float64
}

// DisplayLabel returns Label, defaulting to Name.
func (v *Value) DisplayLabel() string {
	if v.Label != "" {
		return v.Label
	}
	return v.Name
}

// Axis is one named dimension of a sweep.
type Axis struct {
	Name   string
	Values []Value
}

// Spec is a declarative sweep: named axes over configurations and
// workloads, plus the stages every cell runs. The zero stages are off; a
// spec enables the combination it needs (the ablations are Sim+Power, DVFS
// is Measure-only, Figure 6 is all three).
type Spec struct {
	// Name is the scenario identity ("dvfs", "fig6", ...).
	Name string
	// Title is the human description shown by listings.
	Title string

	Axes []Axis

	// Base supplies the default base configuration for cells whose axes set
	// none. Exactly one of Base or a Base-carrying axis must apply to every
	// cell.
	Base func() *config.GPU

	// Workload selects the cell's workload from its coordinates. Required.
	Workload func(c *Cell) (*Workload, error)

	// Sim runs the timing stage (through the simulation-result cache) once
	// per timing group.
	Sim bool
	// Power prices every cell's configuration against its group's shared
	// timing results, each cell with its own power model. Implies Sim.
	Power bool
	// Measure measures every cell's units on a virtual card.
	Measure bool

	// Session derives the card-session tag for a measured cell (distinct
	// tags give sweep cells independent DAQ noise streams while keeping each
	// cell deterministic). Nil means the card's default stream.
	Session func(c *Cell) string
	// SharedCard measures the whole sweep on one card built from the first
	// cell's configuration, one cell after another in plan order (timing
	// and power still fan out by group): for experiments whose methodology
	// differences consecutive measurements on one physical rig (the
	// energy-per-op lane differencing), where the DAQ noise stream's order
	// dependence is part of the methodology being reproduced.
	SharedCard bool
}

// Coord is one axis assignment of a cell. Coords are part of the wire
// layer (CellRecord carries them verbatim), so the fields have stable JSON
// names.
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
	Label string `json:"label,omitempty"`
}

// Cell is one point of the swept grid.
type Cell struct {
	// Index is the cell's position in the plan (deterministic row-major
	// order over the declared axes, after filtering).
	Index int
	// Coords holds one assignment per axis, in axis order.
	Coords []Coord
	// Cfg is the cell's configuration (fresh per cell; never shared).
	Cfg *config.GPU
	// Workload is the cell's selected workload.
	Workload *Workload
	// ClockScale is the measured clock scale (1 when no axis set one).
	ClockScale float64
	// Group is the index of the cell's timing group in Plan.Groups (leader
	// order) — the cache/timing-group provenance the wire layer reports.
	Group int

	// timingKey is Cfg's timing key, hashed once when the plan is built.
	timingKey [32]byte
}

// Value returns the cell's value name on the named axis ("" if absent).
func (c *Cell) Value(axis string) string {
	for _, co := range c.Coords {
		if co.Axis == axis {
			return co.Value
		}
	}
	return ""
}

// Label returns the cell's display label on the named axis ("" if absent).
func (c *Cell) Label(axis string) string {
	for _, co := range c.Coords {
		if co.Axis == axis {
			return co.Label
		}
	}
	return ""
}

// String renders the cell's coordinates ("gpu=GT240 bench=bfs").
func (c *Cell) String() string {
	parts := make([]string, len(c.Coords))
	for i, co := range c.Coords {
		parts[i] = co.Axis + "=" + co.Value
	}
	return strings.Join(parts, " ")
}

// Filter restricts a plan to cells whose value name on each listed axis is
// one of the allowed names. A nil Filter admits every cell.
type Filter map[string][]string

// ParseFilter parses CLI filter arguments of the form "axis=v1,v2" into a
// Filter, merging repeated axes.
func ParseFilter(args []string) (Filter, error) {
	if len(args) == 0 {
		return nil, nil
	}
	f := Filter{}
	for _, a := range args {
		axis, vals, ok := strings.Cut(a, "=")
		if !ok || axis == "" || vals == "" {
			return nil, fmt.Errorf("sweep: malformed filter %q (want axis=value[,value])", a)
		}
		for _, v := range strings.Split(vals, ",") {
			if v == "" {
				return nil, fmt.Errorf("sweep: malformed filter %q (empty value)", a)
			}
			f[axis] = append(f[axis], v)
		}
	}
	return f, nil
}

// validate checks the filter against the spec's axes: unknown axes and
// unknown value names are errors (a typo must not silently select nothing).
// Axes are checked in sorted order so a filter with several offending axes
// reports the same one on every run (map order would pick one at random).
func (f Filter) validate(s *Spec) error {
	axes := make([]string, 0, len(f))
	for axis := range f {
		axes = append(axes, axis)
	}
	sort.Strings(axes)
	for _, axis := range axes {
		vals := f[axis]
		var ax *Axis
		for i := range s.Axes {
			if s.Axes[i].Name == axis {
				ax = &s.Axes[i]
				break
			}
		}
		if ax == nil {
			return fmt.Errorf("sweep: %s: no axis %q (have %s)", s.Name, axis, strings.Join(s.axisNames(), ", "))
		}
		for _, v := range vals {
			found := false
			for i := range ax.Values {
				if ax.Values[i].Name == v {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("sweep: %s: axis %q has no value %q", s.Name, axis, v)
			}
		}
	}
	return nil
}

// admits reports whether the filter allows value name v on the axis.
func (f Filter) admits(axis, v string) bool {
	if f == nil {
		return true
	}
	vals, ok := f[axis]
	if !ok {
		return true
	}
	for _, want := range vals {
		if want == v {
			return true
		}
	}
	return false
}

// axisNames lists the spec's axis names in order.
func (s *Spec) axisNames() []string {
	names := make([]string, len(s.Axes))
	for i := range s.Axes {
		names[i] = s.Axes[i].Name
	}
	return names
}

// validate checks spec well-formedness.
func (s *Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("sweep: spec with no name")
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: %s: no axes", s.Name)
	}
	if s.Workload == nil {
		return fmt.Errorf("sweep: %s: no workload selector", s.Name)
	}
	if !s.Sim && !s.Measure {
		return fmt.Errorf("sweep: %s: no stages enabled", s.Name)
	}
	if s.Power && !s.Sim {
		// Power implies Sim; normalize rather than error so specs can say
		// just Power.
		s.Sim = true
	}
	seenAxis := map[string]bool{}
	for i := range s.Axes {
		ax := &s.Axes[i]
		if ax.Name == "" {
			return fmt.Errorf("sweep: %s: axis %d unnamed", s.Name, i)
		}
		if seenAxis[ax.Name] {
			return fmt.Errorf("sweep: %s: duplicate axis %q", s.Name, ax.Name)
		}
		seenAxis[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: %s: axis %q has no values", s.Name, ax.Name)
		}
		seenVal := map[string]bool{}
		for j := range ax.Values {
			v := &ax.Values[j]
			if v.Name == "" {
				return fmt.Errorf("sweep: %s: axis %q value %d unnamed", s.Name, ax.Name, j)
			}
			if seenVal[v.Name] {
				return fmt.Errorf("sweep: %s: axis %q duplicate value %q", s.Name, ax.Name, v.Name)
			}
			seenVal[v.Name] = true
		}
	}
	return nil
}
