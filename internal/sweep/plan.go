package sweep

import "fmt"

// groupKey identifies a timing group: every cell whose configuration hashes
// to the same timing key and selects the same (deterministic-by-contract)
// workload simulates identically, so one timing run serves the whole group.
type groupKey struct {
	timing   [32]byte
	workload string
}

// Group is one timing-equivalence class of a plan. Cells appear in plan
// order; Cells[0] is the leader, the cell whose configuration runs the
// timing stage on behalf of the group.
type Group struct {
	// Index is the group's position in Plan.Groups (leader order).
	Index int
	Cells []*Cell
}

// Leader returns the group's timing-stage cell.
func (g *Group) Leader() *Cell { return g.Cells[0] }

// Plan is the planned execution of one sweep: the filtered cells in
// deterministic row-major order over the declared axes, partitioned into
// timing groups ordered by their leader's cell index.
type Plan struct {
	Spec   *Spec
	Cells  []*Cell
	Groups []*Group
}

// TimingRuns returns how many timing simulations the plan needs — the
// number of groups, not the number of cells. A grid of N power variants
// over one timing configuration plans N cells but one timing run.
func (p *Plan) TimingRuns() int { return len(p.Groups) }

// String summarizes the plan ("dvfs: 6 cells in 1 timing group(s)").
func (p *Plan) String() string {
	return fmt.Sprintf("%s: %d cell(s) in %d timing group(s)", p.Spec.Name, len(p.Cells), len(p.Groups))
}

// Plan enumerates the spec's cartesian product, applies the filter, builds
// each cell's configuration and workload, and partitions the cells into
// timing groups. Enumeration is row-major over the axes as declared (the
// last axis varies fastest), so the plan — cell order, group membership and
// group order alike — is a pure function of the spec and filter, regardless
// of map iteration or workers.
func (s *Spec) Plan(f Filter) (*Plan, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := f.validate(s); err != nil {
		return nil, err
	}

	p := &Plan{Spec: s}
	groups := map[groupKey]*Group{}
	idx := make([]int, len(s.Axes)) // odometer over axis values

	for {
		// Filter check on the current coordinate assignment.
		admitted := true
		for ai := range s.Axes {
			if !f.admits(s.Axes[ai].Name, s.Axes[ai].Values[idx[ai]].Name) {
				admitted = false
				break
			}
		}
		if admitted {
			cell, err := s.buildCell(idx)
			if err != nil {
				return nil, err
			}
			cell.Index = len(p.Cells)
			p.Cells = append(p.Cells, cell)

			gk := groupKey{timing: cell.Cfg.TimingKey(), workload: cell.Workload.Name}
			g := groups[gk]
			if g == nil {
				g = &Group{Index: len(p.Groups)}
				groups[gk] = g
				p.Groups = append(p.Groups, g) // first appearance = leader order
			}
			g.Cells = append(g.Cells, cell)
			cell.Group = g.Index
		}

		// Advance the odometer; the last axis varies fastest.
		ai := len(idx) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(s.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	if len(p.Cells) == 0 {
		return nil, fmt.Errorf("sweep: %s: filter selected no cells", s.Name)
	}
	return p, nil
}

// buildCell folds the selected axis values into one cell: base
// configuration, mutations, clock scale, then the workload selection.
func (s *Spec) buildCell(idx []int) (*Cell, error) {
	cell := &Cell{ClockScale: 1}

	// Base pass: the last Base-carrying value wins (specs declare at most
	// one Base axis, so "last" is a formality).
	base := s.Base
	cell.Coords = make([]Coord, len(s.Axes))
	for ai := range s.Axes {
		v := &s.Axes[ai].Values[idx[ai]]
		cell.Coords[ai] = Coord{Axis: s.Axes[ai].Name, Value: v.Name, Label: v.DisplayLabel()}
		if v.Base != nil {
			base = v.Base
		}
	}
	if base == nil {
		return nil, fmt.Errorf("sweep: %s: cell %v has no base configuration", s.Name, idx)
	}
	cell.Cfg = base()

	// Mutation pass, in axis order, after the base is fixed.
	for ai := range s.Axes {
		v := &s.Axes[ai].Values[idx[ai]]
		if v.Mutate != nil {
			v.Mutate(cell.Cfg)
		}
		if v.ClockScale != 0 {
			cell.ClockScale = v.ClockScale
		}
	}
	if err := cell.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %s: cell %s: %w", s.Name, cell, err)
	}

	w, err := s.Workload(cell)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: cell %s: %w", s.Name, cell, err)
	}
	if w == nil || w.Name == "" || w.Build == nil {
		return nil, fmt.Errorf("sweep: %s: cell %s: workload selector returned an incomplete workload", s.Name, cell)
	}
	cell.Workload = w
	return cell, nil
}
