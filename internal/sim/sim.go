package sim

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// GPU is the cycle-level simulator instance for one configuration.
type GPU struct {
	cfg *config.GPU
}

// New validates the configuration and builds a simulator.
func New(cfg *config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WarpSize != kernel.WarpSize {
		return nil, fmt.Errorf("sim: config warp size %d unsupported (ISA is %d-wide)", cfg.WarpSize, kernel.WarpSize)
	}
	return &GPU{cfg: cfg}, nil
}

// Config returns the simulated configuration.
func (g *GPU) Config() *config.GPU { return g.cfg }

// gpuSim is the per-run state.
type gpuSim struct {
	cfg    *config.GPU
	cores  []*coreState
	mem    *memSys
	act    Activity
	launch *kernel.Launch
	global *kernel.GlobalMem
	cmem   *kernel.ConstMem

	// prog/dec are the running program and its decoded instruction table,
	// hoisted once per run for the issue hot path.
	prog *kernel.Program
	dec  []kernel.DInstr

	policy    string
	activeSet int

	// Block dispatch.
	nextBlock   int
	totalBlocks int
	blockSMem   int
	blockRegs   int
	blockDemand struct{ warps int }

	// Incrementally-maintained occupancy state (replaces the per-cycle
	// cluster rescan): clusterCores[cl] counts cores in cluster cl with
	// resident warps, clusterBlocks[cl] counts resident blocks, resident is
	// the chip-wide resident-warp count. Updated at place/retire only.
	clusterCores  []int
	clusterBlocks []int
	resident      int

	// Fast-forward bookkeeping for one clock cycle: progress records whether
	// any state transition happened (event drain, fetch, issue, dispatch,
	// retire); structNext is the earliest cycle a structurally-blocked but
	// otherwise issuable warp's unit frees; busyCores lists the cores that
	// charged a busy cycle.
	progress   bool
	structNext uint64
	busyCores  []int
}

// Run simulates one kernel launch and returns the activity and performance
// results. The global memory image is updated in place (functional
// execution), exactly as a real launch would.
func (g *GPU) Run(l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if cmem == nil {
		cmem = kernel.NewConstMem(0)
	}
	cfg := g.cfg

	s := &gpuSim{cfg: cfg, launch: l, global: global, cmem: cmem}
	s.policy = cfg.SchedulerPolicy
	if s.policy == "" {
		s.policy = PolicyRR
	}
	s.activeSet = cfg.ActiveWarpsPerSched
	if s.activeSet <= 0 {
		s.activeSet = 8
	}
	s.act.CoreBusyCycles = make([]uint64, cfg.NumCores())
	s.act.ClusterBusyCycles = make([]uint64, cfg.Clusters)
	s.clusterCores = make([]int, cfg.Clusters)
	s.clusterBlocks = make([]int, cfg.Clusters)
	s.busyCores = make([]int, 0, cfg.NumCores())

	mem, err := newMemSys(cfg)
	if err != nil {
		return nil, err
	}
	s.mem = mem
	for i := 0; i < cfg.NumCores(); i++ {
		c, err := newCoreState(i, cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}

	// Per-block resource demand.
	s.totalBlocks = l.Grid.Count()
	s.blockDemand.warps = l.WarpsPerBlock()
	s.blockSMem = l.SMemBytes()
	s.blockRegs = l.WarpsPerBlock() * kernel.WarpSize * l.Prog.NumRegs
	if !s.cores[0].canAccept(s.blockDemand.warps, s.blockSMem, s.blockRegs) {
		return nil, fmt.Errorf("sim: block of %d warps / %d B smem / %d regs does not fit on a %s core",
			s.blockDemand.warps, s.blockSMem, s.blockRegs, cfg.Name)
	}

	// Kernel launch traffic over PCIe: parameters + launch descriptor.
	s.act.PCIeBytes += uint64(4*len(l.Params)) + 256

	s.prog = l.Prog
	s.dec = l.Prog.Decoded()

	if err := s.run(); err != nil {
		return nil, err
	}
	s.mem.finalize(&s.act)

	return s.result(), nil
}

// maxCycles is the per-kernel cycle budget; exceeding it means deadlock.
const maxCycles = 1 << 34

// run is the main clock loop. By default it is event-driven: whenever a
// cycle makes no progress at all (no writeback drained, no warp fetched or
// issued, no block dispatched or retired), the simulated state is a fixed
// point until the next scheduled event, so the loop jumps straight to the
// minimum over all cores' writeback-heap heads, the earliest structural-unit
// free time with a waiter, and the memory system's next completion —
// crediting the per-cycle activity counters for the skipped span in bulk.
// The result is bit-identical to the dense tick-every-cycle loop (enforced
// by TestFastForwardEquivalence); cfg.DenseClock forces the dense loop.
func (s *gpuSim) run() error {
	fastForward := !s.cfg.DenseClock
	var cycle uint64
	for {
		s.progress = false
		s.structNext = ^uint64(0)
		s.dispatch(cycle)

		// Snapshot the counters a quiescent cycle still advances, so a
		// detected stall can be credited in bulk below.
		arbs0, searches0 := s.act.SchedArbs, s.act.SBSearches

		s.busyCores = s.busyCores[:0]
		for _, c := range s.cores {
			if !c.residentWarps() && len(c.events) == 0 {
				continue
			}
			s.busyCores = append(s.busyCores, c.id)
			if err := s.stepCore(c, cycle); err != nil {
				return err
			}
		}
		anyBusy := len(s.busyCores) > 0

		// Cluster occupancy for the base-power model, from the
		// incrementally-maintained per-cluster busy-core counts.
		for cl, n := range s.clusterCores {
			if n > 0 {
				s.act.ClusterBusyCycles[cl]++
			}
		}
		schedActive := s.nextBlock < s.totalBlocks || anyBusy
		if schedActive {
			s.act.GlobalSchedCycles++
		}
		s.act.ResidentWarpCycles += uint64(s.resident)

		cycle++
		if !anyBusy && s.nextBlock >= s.totalBlocks {
			break
		}
		if cycle > maxCycles {
			return fmt.Errorf("sim: cycle budget exceeded for kernel %s (deadlock?)", s.launch.Prog.Name)
		}

		if fastForward && !s.progress {
			if target := s.nextEventCycle(cycle); target > cycle {
				span := target - cycle
				arbD := s.act.SchedArbs - arbs0
				seaD := s.act.SBSearches - searches0
				s.act.SchedArbs += span * arbD
				s.act.SBSearches += span * seaD
				for _, id := range s.busyCores {
					s.act.CoreBusyCycles[id] += span
				}
				for cl, n := range s.clusterCores {
					if n > 0 {
						s.act.ClusterBusyCycles[cl] += span
					}
				}
				if schedActive {
					s.act.GlobalSchedCycles += span
				}
				s.act.ResidentWarpCycles += span * uint64(s.resident)
				cycle = target
			}
		}
	}
	s.act.Cycles = cycle
	return nil
}

// stepCore runs one core's cycle: writeback drain, retirement sweep, fetch,
// issue, busy-cycle credit.
func (s *gpuSim) stepCore(c *coreState, cycle uint64) error {
	if c.drainEvents(cycle, &s.act) > 0 {
		s.progress = true
	}
	s.drainRetirements(c)
	fresh := c.fetchStage(&s.act)
	if fresh != 0 {
		s.progress = true
	}
	if err := s.issueStage(c, cycle, fresh); err != nil {
		return err
	}
	s.act.CoreBusyCycles[c.id]++
	return nil
}

// retireIfDone frees a block once all warps finished and all in-flight
// instructions drained, updating the chip-wide occupancy counts.
func (s *gpuSim) retireIfDone(c *coreState, b *blockRt) bool {
	if b.finished < b.total || b.outstanding != 0 {
		return false
	}
	c.retire(b, s.blockSMem, s.blockRegs)
	s.resident -= b.total
	s.clusterBlocks[c.cluster]--
	if !c.residentWarps() {
		s.clusterCores[c.cluster]--
	}
	s.progress = true
	return true
}

// drainRetirements retires any blocks that completed via event drains.
func (s *gpuSim) drainRetirements(c *coreState) {
	for i := 0; i < len(c.blocks); {
		if s.retireIfDone(c, c.blocks[i]) {
			continue // retire spliced the slice
		}
		i++
	}
}

// nextEventCycle returns the next cycle at which any simulated state can
// change: the earliest pending writeback across the cores, the earliest
// execution-unit free time a hazard-free warp is waiting on, and the memory
// system's next in-flight completion. If nothing is pending anywhere the
// machine is deadlocked, and the cycle budget is returned so the caller
// reports it immediately instead of ticking 2^34 times first.
func (s *gpuSim) nextEventCycle(now uint64) uint64 {
	next := s.structNext
	for _, c := range s.cores {
		if n := c.nextEventCycle(); n < next {
			next = n
		}
	}
	if n := s.mem.nextEventCycle(now); n < next {
		next = n
	}
	if next == ^uint64(0) {
		return maxCycles + 1
	}
	if next < now {
		return now
	}
	return next
}

// dispatch hands pending blocks to cores, filling empty clusters before
// doubling up — the hardware scheduler behaviour that produces the Fig. 4
// power staircase: "blocks are distributed first not only to unoccupied
// cores, but also to unoccupied clusters".
func (s *gpuSim) dispatch(cycle uint64) {
	for s.nextBlock < s.totalBlocks {
		best := -1
		bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
		for _, c := range s.cores {
			if !c.canAccept(s.blockDemand.warps, s.blockSMem, s.blockRegs) {
				continue
			}
			key := [3]int{s.clusterBlocks[c.cluster], c.residentBlocks(), c.id}
			if key[0] < bestKey[0] || (key[0] == bestKey[0] && (key[1] < bestKey[1] ||
				(key[1] == bestKey[1] && key[2] < bestKey[2]))) {
				best, bestKey = c.id, key
			}
		}
		if best < 0 {
			return
		}
		c := s.cores[best]
		bid := s.nextBlock
		s.nextBlock++
		cx := bid % s.launch.Grid.X
		cy := bid / s.launch.Grid.X
		bctx := c.takeBlockCtx(s.launch, cx, cy)
		env := &kernel.Env{Global: s.global, Const: s.cmem, Block: bctx}
		wasResident := c.residentWarps()
		b := c.place(s.launch, env, s.blockSMem, s.blockRegs, &s.act)
		s.act.BlocksLaunched++
		s.clusterBlocks[c.cluster]++
		if !wasResident {
			s.clusterCores[c.cluster]++
		}
		s.resident += b.total
		s.progress = true
		// One dispatch per cycle: mirrors the serial hardware scheduler.
		break
	}
}

// result assembles the Result from the collected activity.
func (s *gpuSim) result() *Result {
	a := s.act
	r := &Result{Activity: a}
	r.Seconds = float64(a.Cycles) / s.cfg.CoreClockHz()
	r.WarpInstrs = a.IssuedInstrs
	r.ThreadInstrs = a.IntThreadInstrs + a.FPThreadInstrs + a.SFUThreadInstrs
	if a.Cycles > 0 {
		r.IPC = float64(a.IssuedInstrs) / float64(a.Cycles)
	}
	r.L1HitRate = 1
	if a.L1Reads > 0 {
		r.L1HitRate = 1 - float64(a.L1Misses)/float64(a.L1Reads)
	}
	r.L2HitRate = 1
	if rw := a.L2Reads + a.L2Writes; rw > 0 {
		r.L2HitRate = 1 - float64(a.L2Misses)/float64(rw)
	}
	r.ConstHitRate = 1
	if a.ConstReads > 0 {
		r.ConstHitRate = 1 - float64(a.ConstMisses)/float64(a.ConstReads)
	}
	// Occupancy: resident warps per busy core-cycle over the per-core
	// maximum, from the exact resident-warp integral.
	var busySum uint64
	for _, b := range a.CoreBusyCycles {
		busySum += b
	}
	if busySum > 0 {
		r.OccupancyPct = 100 * float64(a.ResidentWarpCycles) /
			(float64(busySum) * float64(s.cfg.MaxWarpsPerCore))
		if r.OccupancyPct > 100 {
			r.OccupancyPct = 100
		}
	}

	// DRAM active fraction feeds the GDDR background power split.
	// Stored via method on demand by the power model; expose busy cycles.
	a = r.Activity
	r.Activity.DRAMBusyCycles = s.mem.dram.totalBusy()
	return r
}

// DRAMActiveFraction derives the fraction of time DRAM banks were active.
func (r *Result) DRAMActiveFraction(channels int) float64 {
	if r.Activity.Cycles == 0 || channels == 0 {
		return 0
	}
	f := float64(r.Activity.DRAMBusyCycles) / float64(uint64(channels)*r.Activity.Cycles)
	if f > 1 {
		f = 1
	}
	return f
}
