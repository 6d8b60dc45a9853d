package sim

import (
	"fmt"
	"sync/atomic"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// GPU is the cycle-level simulator instance for one configuration.
type GPU struct {
	cfg *config.GPU
	// key is cfg's timing key, hashed once.
	key [32]byte
	// coreSteps totals the core-steps (stepCore calls) of every run on this
	// instance, so tests can see how many cycles the event-driven clock
	// skipped. Runs may share a GPU concurrently, hence the atomic.
	coreSteps atomic.Uint64
}

// New validates the configuration and builds a simulator on its own copy
// of it.
func New(cfg *config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WarpSize != kernel.WarpSize {
		return nil, fmt.Errorf("sim: config warp size %d unsupported (ISA is %d-wide)", cfg.WarpSize, kernel.WarpSize)
	}
	own := *cfg
	return &GPU{cfg: &own, key: own.TimingKey()}, nil
}

// Config returns the simulated configuration: the simulator's own copy,
// which callers must not modify.
func (g *GPU) Config() *config.GPU { return g.cfg }

// TimingKey returns the configuration's timing key (config.GPU.TimingKey).
func (g *GPU) TimingKey() [32]byte { return g.key }

// gpuSim is the per-run state of one kernel launch: the cores, the shared
// memory system, the block dispatcher and the activity being collected.
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

	// coreSteps counts stepCore calls; Run adds it to GPU.coreSteps.
	coreSteps uint64
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

	err = s.run()
	g.coreSteps.Add(s.coreSteps)
	if err != nil {
		return nil, err
	}
	s.mem.finalize(&s.act)

	return s.result(), nil
}

// maxCycles is the per-kernel cycle budget; exceeding it means deadlock.
const maxCycles = 1 << 34

// run is the main clock loop. By default it is event-driven per core: a
// step that drains no writeback, retires no block, fetches nothing and
// issues nothing leaves its core at a fixed point until the core's own next
// event — its earliest pending writeback, or the cycle an execution unit
// frees for a warp blocked only structurally — so the core sleeps until
// then. Each skipped step would have charged exactly what the idle step
// did; wakeCore credits them in one multiplication when the core wakes, on
// its own or because dispatch hands it a block. When every busy core
// sleeps, the clock jumps to the earliest wake and credits only the
// chip-wide counters for the span. The memory system is never a wake
// source: a request's completion is resolved at issue and reaches its core
// only as a writeback in that core's heap. The result is bit-identical to
// the dense loop, which cfg.DenseClock selects: every busy core is stepped
// every cycle (TestFastForwardEquivalence and the activity golden compare
// the two).
func (s *gpuSim) run() error {
	sleep := !s.cfg.DenseClock
	var cycle uint64
	for {
		s.dispatch(cycle)

		// wake is the next cycle any core must be stepped: the cycle after
		// this one if a core stayed awake, else the earliest sleeper's wake.
		// If every core sleeps with nothing pending the machine is
		// deadlocked, and wake stays past the cycle budget to report it now.
		anyBusy := false
		wake := uint64(maxCycles + 1)
		for _, c := range s.cores {
			if !c.residentWarps() && len(c.events) == 0 {
				continue
			}
			anyBusy = true
			if c.sleepFrom != 0 {
				if c.wake > cycle {
					wake = min(wake, c.wake)
					continue
				}
				s.wakeCore(c, cycle)
			}
			arbs, searches := s.act.SchedArbs, s.act.SBSearches
			idle, err := s.stepCore(c, cycle)
			if err != nil {
				return err
			}
			if !idle || !sleep {
				wake = cycle + 1
				continue
			}
			c.sleepFrom, c.wake = cycle+1, c.structNext
			if len(c.events) > 0 {
				c.wake = min(c.wake, c.events[0].cycle)
			}
			c.sleepArbs, c.sleepSearches = s.act.SchedArbs-arbs, s.act.SBSearches-searches
			wake = min(wake, c.wake)
		}

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

		// Every busy core sleeps. Dispatch cannot place a block before some
		// core frees resources, which takes a step, so jump to the earliest
		// wake.
		if wake > cycle {
			span := wake - cycle
			for cl, n := range s.clusterCores {
				if n > 0 {
					s.act.ClusterBusyCycles[cl] += span
				}
			}
			if schedActive {
				s.act.GlobalSchedCycles += span
			}
			s.act.ResidentWarpCycles += span * uint64(s.resident)
			cycle = wake
		}
	}
	s.act.Cycles = cycle
	return nil
}

// wakeCore ends a core's sleep before it is stepped at cycle now. The steps
// it skipped, sleepFrom through now-1, each charge what the idle step that
// put it to sleep charged, because nothing that step read has changed.
func (s *gpuSim) wakeCore(c *coreState, now uint64) {
	if c.sleepFrom == 0 {
		return
	}
	span := now - c.sleepFrom
	s.act.CoreBusyCycles[c.id] += span
	s.act.SchedArbs += span * c.sleepArbs
	s.act.SBSearches += span * c.sleepSearches
	c.sleepFrom = 0
}

// stepCore runs one core's cycle — writeback drain, retirement sweep,
// fetch, issue, busy-cycle credit — and reports whether it was idle:
// nothing drained, retired, fetched or issued.
func (s *gpuSim) stepCore(c *coreState, cycle uint64) (bool, error) {
	s.coreSteps++
	c.structNext = ^uint64(0)
	blocks, issued := len(c.blocks), s.act.IssuedInstrs
	drained := c.drainEvents(cycle, &s.act)
	if drained > 0 {
		// A block becomes retirable only when its last writeback drains:
		// a control instruction that finishes it retires it at issue.
		s.drainRetirements(c)
	}
	fresh := c.fetchStage(s.dec, &s.act)
	if err := s.issueStage(c, cycle, fresh); err != nil {
		return false, err
	}
	s.act.CoreBusyCycles[c.id]++
	return drained == 0 && len(c.blocks) == blocks && fresh == 0 && s.act.IssuedInstrs == issued, nil
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
		s.wakeCore(c, cycle)
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

	// DRAM busy cycles feed the GDDR background power split
	// (Result.DRAMActiveFraction).
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
