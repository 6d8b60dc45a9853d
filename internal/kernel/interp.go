package kernel

import "fmt"

// InterpStats summarises a functional execution.
type InterpStats struct {
	// WarpInstrs is the number of warp-level instructions executed.
	WarpInstrs uint64
	// ThreadInstrs is the lane-weighted instruction count.
	ThreadInstrs uint64
	// PerClass splits WarpInstrs by functional-unit class.
	PerClass [5]uint64
	// Divergences counts warp splits.
	Divergences uint64
	// Barriers counts barrier releases.
	Barriers uint64
	// Blocks counts executed thread blocks.
	Blocks uint64
	// MaxStackDepth is the deepest reconvergence stack observed.
	MaxStackDepth int
}

// Interp executes a launch functionally (no timing): blocks run one after
// another, warps within a block interleave round-robin instruction by
// instruction, which exercises divergence and barrier behaviour the same way
// the timing simulator does. It is the reference executor used to verify
// benchmark correctness.
func Interp(l *Launch, global *GlobalMem, cmem *ConstMem) (*InterpStats, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if cmem == nil {
		cmem = NewConstMem(0)
	}
	stats := &InterpStats{}
	var info StepInfo
	maxInstr := uint64(1) << 33 // runaway guard

	for cy := 0; cy < l.Grid.Y; cy++ {
		for cx := 0; cx < l.Grid.X; cx++ {
			block := NewBlockCtx(l, cx, cy)
			env := &Env{Global: global, Const: cmem, Block: block}
			warps := makeBlockWarps(l)
			stats.Blocks++

			for {
				progress := false
				allDone := true
				for _, w := range warps {
					if w.Finished || w.AtBarrier {
						if !w.Finished {
							allDone = false
						}
						continue
					}
					allDone = false
					if err := w.Exec(l.Prog, env, &info); err != nil {
						return stats, fmt.Errorf("block (%d,%d) warp %d: %w", cx, cy, w.IDInBlock, err)
					}
					progress = true
					stats.WarpInstrs++
					stats.ThreadInstrs += uint64(info.ActiveLanes)
					stats.PerClass[ClassOf(info.Instr.Op)]++
					if info.Diverged {
						stats.Divergences++
					}
					if d := w.StackDepth(); d > stats.MaxStackDepth {
						stats.MaxStackDepth = d
					}
					if stats.WarpInstrs > maxInstr {
						return stats, fmt.Errorf("kernel %s: instruction budget exceeded (infinite loop?)", l.Prog.Name)
					}
				}
				if allDone {
					break
				}
				if !progress {
					// Everyone alive is at a barrier: release it.
					released := false
					for _, w := range warps {
						if w.AtBarrier {
							w.ReleaseBarrier()
							released = true
						}
					}
					if !released {
						return stats, fmt.Errorf("kernel %s: deadlock in block (%d,%d)", l.Prog.Name, cx, cy)
					}
					stats.Barriers++
				}
			}
		}
	}
	return stats, nil
}

// makeBlockWarps creates the warps of one block, assigning live lanes to the
// trailing partial warp if the block size is not a multiple of WarpSize.
func makeBlockWarps(l *Launch) []*Warp {
	threads := l.ThreadsPerBlock()
	n := l.WarpsPerBlock()
	warps := make([]*Warp, n)
	for i := 0; i < n; i++ {
		lanes := WarpSize
		if rem := threads - i*WarpSize; rem < WarpSize {
			lanes = rem
		}
		warps[i] = NewWarp(i, lanes, l.Prog.NumRegs)
	}
	return warps
}
