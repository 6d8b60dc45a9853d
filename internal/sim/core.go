package sim

import (
	"fmt"
	"math/bits"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim/cache"
)

// wbEvent is a scheduled writeback: when the pipeline or memory system
// delivers the result of an in-flight instruction back to the warp.
type wbEvent struct {
	cycle uint64
	slot  int
	reg   uint8
	hasWB bool // writes a register (counts an RF bank write)
	isMem bool // memory instruction (two-level scheduler demotion state)
}

// wbHeap is a min-heap of writeback events ordered by cycle. The sift
// operations are implemented directly (rather than through container/heap)
// so pushes and pops stay free of interface boxing on the issue hot path.
type wbHeap []wbEvent

func (h *wbHeap) push(ev wbEvent) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].cycle <= q[i].cycle {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *wbHeap) pop() wbEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].cycle < q[min].cycle {
			min = l
		}
		if r < n && q[r].cycle < q[min].cycle {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// blockRt is a thread block resident on a core.
type blockRt struct {
	env         *kernel.Env
	slots       []int // warp slot indices
	total       int   // warps in the block
	finished    int
	atBarrier   int
	outstanding int // in-flight instructions across the block's warps
}

// warpSlot is the per-warp control state of the warp control unit.
type warpSlot struct {
	active bool
	w      *kernel.Warp
	block  *blockRt

	pendingN int
	// Scoreboard: the destination registers in flight, one bit per
	// register, and how many bits are set. A register is never in flight
	// twice: the destination is part of the hazard set, so a warp cannot
	// issue a write to a register that is already pending.
	sbRegs [4]uint64
	sbN    int

	// ageStamp orders warps by placement for GTO/two-level policies.
	ageStamp uint64
	// memPending counts outstanding memory instructions (two-level
	// scheduler demotes warps waiting on memory).
	memPending int
}

// coreState is one SIMT core (SM): warps, schedulers, pipelines, L1 and
// constant caches.
type coreState struct {
	id, cluster int
	cfg         *config.GPU

	slots  []warpSlot
	blocks []*blockRt

	// Resource accounting for the block dispatcher.
	freeWarps int
	freeSMem  int
	freeRegs  int

	// Pipeline availability (cycle when the unit accepts the next warp).
	spFree   []uint64 // per scheduler
	sfuFree  uint64
	ldstFree uint64

	fetchRR    int
	issueRR    []int
	lastIssued []int // per scheduler: slot that issued last (GTO greediness)
	ageCounter uint64
	orderBuf   []int // scratch for candidate ordering

	// Warp-status bitmasks (config.Validate caps MaxWarpsPerCore at 64, so
	// one word covers every slot): bit i of fetchable is set iff slot i is
	// active with no buffered instruction and neither finished nor at a
	// barrier; issuable is the same predicate with a buffered instruction.
	// schedMask[s] selects scheduler s's congruence class (slot i belongs to
	// scheduler i mod Schedulers).
	fetchable uint64
	issuable  uint64
	schedMask []uint64
	// hazBlocked marks slots whose buffered instruction failed the hazard
	// check. The check's inputs — the instruction at the warp's PC and the
	// slot's in-flight writebacks — change only when the warp issues, when
	// one of its writebacks drains, or when its block retires, so the bit
	// stays valid until drainEvents or retire clears it (a slot that issues
	// was never blocked) and the issue stage skips re-checking the slot.
	hazBlocked uint64

	// Retired warps, block contexts and block runtimes recycle through
	// per-core LIFO pools, so steady-state dispatch allocates nothing but
	// one Env per block.
	warpPool  []*kernel.Warp
	ctxPool   []*kernel.BlockCtx
	blockPool []*blockRt

	events wbHeap

	l1     *cache.Cache // nil when absent
	ccache *cache.Cache
	tcache *cache.Cache // texture cache; nil when absent

	// Sleep state of the event-driven clock (see gpuSim.run): sleepFrom is
	// the first skipped cycle (0 while awake), wake the cycle the core must
	// be stepped again, and sleepArbs/sleepSearches what each skipped step
	// charges. structNext is the earliest cycle an execution unit frees for
	// a warp the current step found blocked only structurally.
	sleepFrom, wake          uint64
	sleepArbs, sleepSearches uint64
	structNext               uint64

	// info receives the functional result of the instruction being issued.
	info kernel.StepInfo

	// Reusable per-core scratch buffers: these keep the fetch/issue/memory
	// hot path free of per-cycle allocations.
	segBuf   []uint32 // coalesced segment bases
	addrBuf  []uint32 // distinct constant addresses
	lineBuf  []uint32 // distinct texture lines
	tlActive []int    // two-level scheduler active set
	tlPend   []int    // two-level scheduler pending set
}

func newCoreState(id int, cfg *config.GPU) (*coreState, error) {
	c := &coreState{
		id:        id,
		cluster:   id / cfg.CoresPerCluster,
		cfg:       cfg,
		slots:     make([]warpSlot, cfg.MaxWarpsPerCore),
		freeWarps: cfg.MaxWarpsPerCore,
		freeSMem:  cfg.SharedMemPerCoreKB * 1024,
		freeRegs:  cfg.RegsPerCore,
		spFree:    make([]uint64, cfg.Schedulers),
		issueRR:   make([]int, cfg.Schedulers),
	}
	c.lastIssued = make([]int, cfg.Schedulers)
	for i := range c.lastIssued {
		c.lastIssued[i] = -1
	}
	c.schedMask = make([]uint64, cfg.Schedulers)
	for i := 0; i < cfg.MaxWarpsPerCore; i++ {
		c.schedMask[i%cfg.Schedulers] |= 1 << i
	}
	if cfg.L1KB > 0 {
		l1, err := cache.New(cache.Config{
			SizeBytes: cfg.L1KB * 1024, LineBytes: cfg.L1LineB,
			Assoc: cfg.L1Assoc, Policy: cache.WriteThrough,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: core %d L1: %w", id, err)
		}
		c.l1 = l1
	}
	cc, err := cache.New(cache.Config{
		SizeBytes: cfg.ConstCacheKB * 1024, LineBytes: cfg.ConstLineB,
		Assoc: 4, Policy: cache.WriteThrough,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: core %d const cache: %w", id, err)
	}
	c.ccache = cc
	if cfg.TexCacheKB > 0 {
		tc, err := cache.New(cache.Config{
			SizeBytes: cfg.TexCacheKB * 1024, LineBytes: cfg.TexLineB,
			Assoc: 4, Policy: cache.WriteThrough,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: core %d texture cache: %w", id, err)
		}
		c.tcache = tc
	}
	return c, nil
}

// residentWarps reports whether the core has any work.
func (c *coreState) residentWarps() bool { return c.freeWarps < len(c.slots) }

// residentBlocks returns the number of blocks on the core.
func (c *coreState) residentBlocks() int { return len(c.blocks) }

// canAccept reports whether a block with the given demands fits.
func (c *coreState) canAccept(warps, smemBytes, regs int) bool {
	return len(c.blocks) < c.cfg.MaxBlocksPerCore &&
		c.freeWarps >= warps && c.freeSMem >= smemBytes && c.freeRegs >= regs
}

// takeWarp pops a pooled warp (resetting it for the new block) or builds a
// fresh one when the pool is dry.
func (c *coreState) takeWarp(idInBlock, lanes, numRegs int) *kernel.Warp {
	if n := len(c.warpPool); n > 0 {
		w := c.warpPool[n-1]
		c.warpPool = c.warpPool[:n-1]
		w.Reset(idInBlock, lanes, numRegs)
		return w
	}
	return kernel.NewWarp(idInBlock, lanes, numRegs)
}

// takeBlock pops a pooled block runtime or builds a fresh one.
func (c *coreState) takeBlock(env *kernel.Env, total int) *blockRt {
	if n := len(c.blockPool); n > 0 {
		b := c.blockPool[n-1]
		c.blockPool = c.blockPool[:n-1]
		*b = blockRt{env: env, slots: b.slots[:0], total: total}
		return b
	}
	return &blockRt{env: env, total: total}
}

// takeBlockCtx pops a pooled block context (resetting it for the new
// block's coordinates) or builds a fresh one.
func (c *coreState) takeBlockCtx(l *kernel.Launch, cx, cy int) *kernel.BlockCtx {
	if n := len(c.ctxPool); n > 0 {
		bctx := c.ctxPool[n-1]
		c.ctxPool = c.ctxPool[:n-1]
		bctx.Reset(l, cx, cy)
		return bctx
	}
	return kernel.NewBlockCtx(l, cx, cy)
}

// place installs a block's warps into free slots.
func (c *coreState) place(l *kernel.Launch, env *kernel.Env, smemBytes, regs int, a *Activity) *blockRt {
	nw := l.WarpsPerBlock()
	threads := l.ThreadsPerBlock()
	b := c.takeBlock(env, nw)
	for i := 0; i < nw; i++ {
		lanes := kernel.WarpSize
		if rem := threads - i*kernel.WarpSize; rem < kernel.WarpSize {
			lanes = rem
		}
		slot := c.findFreeSlot()
		c.ageCounter++
		c.slots[slot] = warpSlot{
			active:   true,
			w:        c.takeWarp(i, lanes, l.Prog.NumRegs),
			block:    b,
			ageStamp: c.ageCounter,
		}
		c.fetchable |= 1 << slot
		b.slots = append(b.slots, slot)
		a.WSTWrites++ // warp status table entry initialised
		a.WarpsLaunched++
	}
	a.ThreadsLaunched += uint64(threads)
	c.freeWarps -= nw
	c.freeSMem -= smemBytes
	c.freeRegs -= regs
	c.blocks = append(c.blocks, b)
	return b
}

func (c *coreState) findFreeSlot() int {
	for i := range c.slots {
		if !c.slots[i].active {
			return i
		}
	}
	panic("sim: no free warp slot despite accounting")
}

// maybeReleaseBarrier releases a block's barrier once every live warp waits.
func (c *coreState) maybeReleaseBarrier(b *blockRt) {
	if b.atBarrier == 0 || b.atBarrier+b.finished < b.total {
		return
	}
	for _, slot := range b.slots {
		if c.slots[slot].active && c.slots[slot].w.AtBarrier {
			c.slots[slot].w.ReleaseBarrier()
			// A released warp was fetch-blocked by AtBarrier with an empty
			// instruction buffer; it becomes fetchable again.
			if !c.slots[slot].w.Finished {
				c.fetchable |= 1 << slot
			}
		}
	}
	b.atBarrier = 0
}

// retire frees a completed block's resources, returning its warps, block
// context and runtime to the core's pools.
func (c *coreState) retire(b *blockRt, smemBytes, regs int) {
	for _, s := range b.slots {
		c.warpPool = append(c.warpPool, c.slots[s].w)
		c.slots[s] = warpSlot{}
		c.fetchable &^= 1 << s
		c.issuable &^= 1 << s
		c.hazBlocked &^= 1 << s
	}
	c.freeWarps += b.total
	c.freeSMem += smemBytes
	c.freeRegs += regs
	for i, bb := range c.blocks {
		if bb == b {
			c.blocks = append(c.blocks[:i], c.blocks[i+1:]...)
			break
		}
	}
	c.ctxPool = append(c.ctxPool, b.env.Block)
	b.env = nil
	c.blockPool = append(c.blockPool, b)
}

// drainEvents applies writebacks due at the current cycle and returns how
// many events it drained.
func (c *coreState) drainEvents(now uint64, a *Activity) int {
	drained := 0
	for len(c.events) > 0 && c.events[0].cycle <= now {
		ev := c.events.pop()
		drained++
		c.hazBlocked &^= 1 << ev.slot
		sl := &c.slots[ev.slot]
		if !sl.active {
			continue // block already retired (possible only after errors)
		}
		sl.pendingN--
		sl.block.outstanding--
		if ev.isMem && sl.memPending > 0 {
			sl.memPending--
		}
		if ev.hasWB {
			a.RFBankWrites++
			a.SBWrites++ // scoreboard entry release
			if bit := uint64(1) << (ev.reg & 63); sl.sbRegs[ev.reg>>6]&bit != 0 {
				sl.sbRegs[ev.reg>>6] &^= bit
				sl.sbN--
			}
		}
	}
	return drained
}

// fetchStage models instruction fetch + decode: up to Schedulers warps per
// cycle refill their instruction buffer slot. It returns the mask of slots
// fetched this cycle, which may not issue until the next one.
//
// The scan visits slots round-robin from the fetch pointer, i = fetchRR +
// scan with the live fetchRR (a successful fetch advances the whole
// window). Rotating the fetchable mask so bit 0 is the scan head turns
// "next eligible slot" into a trailing-zero count, skipping runs of
// ineligible slots in one step; nothing but our own fetches changes
// eligibility mid-scan.
func (c *coreState) fetchStage(a *Activity) (fresh uint64) {
	n := len(c.slots)
	for scan, fetched := 0, 0; scan < n && fetched < c.cfg.Schedulers; {
		f := c.fetchable
		if f == 0 {
			break
		}
		start := c.fetchRR + scan
		if start >= n {
			start -= n
		}
		rot := f>>start | f<<(n-start)
		d := bits.TrailingZeros64(rot)
		if scan+d >= n {
			break // next eligible slot is past the scan budget
		}
		scan += d
		i := start + d
		if i >= n {
			i -= n
		}
		c.fetchable &^= 1 << i
		c.issuable |= 1 << i
		fresh |= 1 << i
		fetched++
		a.ICacheReads++
		a.Decodes++
		a.WSTReads++
		a.WSTWrites++
		a.IBufWrites++
		c.fetchRR = i + 1
		if c.fetchRR == n {
			c.fetchRR = 0
		}
		scan++
	}
	return fresh
}

// hazard reports whether the instruction at the warp's PC has a register
// dependency against in-flight instructions (scoreboard check) or, in
// blocking mode, whether anything at all is outstanding. The decoded
// HazRegs table is the instruction's source registers plus its destination.
func (c *coreState) hazard(sl *warpSlot, d *kernel.DInstr) bool {
	if !c.cfg.HasScoreboard {
		return sl.pendingN > 0
	}
	if sl.sbN >= c.cfg.ScoreboardEntries {
		return true
	}
	for _, r := range d.HazRegs[:d.NHaz] {
		if sl.sbRegs[r>>6]&(1<<(r&63)) != 0 {
			return true
		}
	}
	return false
}

// unitFreeAt returns the cycle the instruction class's unit accepts the next
// warp — the wake-up time of a warp blocked only structurally.
func (c *coreState) unitFreeAt(class kernel.Class, sched int) uint64 {
	switch class {
	case kernel.ClassInt, kernel.ClassFP:
		return c.spFree[sched]
	case kernel.ClassSFU:
		return c.sfuFree
	case kernel.ClassMem:
		return c.ldstFree
	default:
		return 0
	}
}

// issueStage arbitrates and issues up to one instruction per scheduler.
// A scheduler arbitrates among its live slots — buffered, and not fetched
// this cycle — in the order its policy dictates and issues the first one
// free of hazards and structural stalls. Every live slot the priority order
// reaches up to and including the issuing one is charged a scoreboard
// search, all of them when none issues; hazard-blocked slots are charged
// without being re-checked.
func (s *gpuSim) issueStage(c *coreState, now uint64, fresh uint64) error {
	for sched := 0; sched < c.cfg.Schedulers; sched++ {
		live := c.issuable & c.schedMask[sched] &^ fresh
		if live == 0 {
			continue
		}
		s.act.SchedArbs++
		var searched int
		var err error
		if s.policy == PolicyRR {
			searched, err = s.issueRoundRobin(c, sched, live, now)
		} else {
			searched, err = s.issueOrdered(c, sched, live, fresh, now)
		}
		s.act.SBSearches += uint64(searched)
		if err != nil {
			return err
		}
	}
	return nil
}

// issueRoundRobin walks the live slots in rotating-priority order: from the
// scheduler's priority pointer upward, then the wrapped remainder. It
// returns the number of scoreboard searches to charge.
func (s *gpuSim) issueRoundRobin(c *coreState, sched int, live uint64, now uint64) (int, error) {
	rr := uint(c.issueRR[sched])
	hi := live >> rr << rr
	searched := 0
	for _, window := range [2]uint64{hi, live &^ hi} {
		for m := window &^ c.hazBlocked; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			issued, err := s.tryIssue(c, i, sched, now)
			if issued || err != nil {
				// Charge the window's live slots at or below i.
				return searched + bits.OnesCount64(window<<(63-i)), err
			}
		}
		searched += bits.OnesCount64(window)
	}
	return searched, nil
}

// issueOrdered walks the live slots in the order candidateOrder builds for
// the GTO and two-level policies. It returns the number of scoreboard
// searches to charge.
func (s *gpuSim) issueOrdered(c *coreState, sched int, live, fresh uint64, now uint64) (int, error) {
	c.orderBuf = s.candidateOrder(c, sched, live, fresh, c.orderBuf)
	for k, i := range c.orderBuf {
		if c.hazBlocked&(1<<i) != 0 {
			continue
		}
		issued, err := s.tryIssue(c, i, sched, now)
		if issued || err != nil {
			return k + 1, err
		}
	}
	return len(c.orderBuf), nil
}

// tryIssue issues slot i's buffered instruction if it passes the hazard
// check and its execution unit is free, and reports whether it issued. A
// hazard marks the slot in hazBlocked.
func (s *gpuSim) tryIssue(c *coreState, i, sched int, now uint64) (bool, error) {
	sl := &c.slots[i]
	pc := sl.w.PC()
	d := &s.dec[pc]
	if c.hazard(sl, d) {
		c.hazBlocked |= 1 << i
		return false, nil
	}
	if t := c.unitFreeAt(d.Class, sched); t > now {
		// Hazard-free but structurally blocked: the warp becomes issuable
		// the moment the unit frees, so the core must not sleep past that
		// point.
		c.structNext = min(c.structNext, t)
		return false, nil
	}
	if err := s.issueInstr(c, sl, i, sched, &s.prog.Instrs[pc], d, now); err != nil {
		return false, err
	}
	c.issueRR[sched] = (i + 1) % len(c.slots)
	c.lastIssued[sched] = i
	return true, nil
}

// issueInstr executes one instruction functionally and models its timing.
func (s *gpuSim) issueInstr(c *coreState, sl *warpSlot, slotIdx, sched int, in *kernel.Instr, d *kernel.DInstr, now uint64) error {
	a := &s.act
	cfg := c.cfg
	class := d.Class

	info := &c.info
	if err := sl.w.Exec(s.prog, sl.block.env, info); err != nil {
		return fmt.Errorf("core %d slot %d: %w", c.id, slotIdx, err)
	}

	c.issuable &^= 1 << slotIdx
	if !sl.w.Finished && !sl.w.AtBarrier {
		c.fetchable |= 1 << slotIdx
	}
	a.IssuedInstrs++
	a.IBufReads++
	a.WSTReads++
	a.ReconvReads++
	if info.Diverged {
		a.ReconvPushes += 2
	}
	a.ReconvPops += uint64(info.Reconverged)

	// Register file activity: one bank row read per source register
	// (operands collected over multiple cycles), one collector fill and one
	// crossbar transfer each.
	nsrc := uint64(d.NSrc)
	a.RFBankReads += nsrc
	a.OCWrites += nsrc
	a.OperandXbar += nsrc

	lanes := info.ActiveLanes
	var latency uint64
	hasWB := in.HasDst

	switch class {
	case kernel.ClassInt, kernel.ClassFP:
		ii := uint64(cfg.WarpSize / (cfg.FUsPerCore / cfg.Schedulers))
		if ii == 0 {
			ii = 1
		}
		c.spFree[sched] = now + ii
		latency = uint64(cfg.ALULatency)
		if class == kernel.ClassInt {
			a.IntWarpInstrs++
			a.IntThreadInstrs += uint64(lanes)
		} else {
			a.FPWarpInstrs++
			a.FPThreadInstrs += uint64(lanes)
		}
	case kernel.ClassSFU:
		ii := uint64(cfg.WarpSize / cfg.SFUsPerCore)
		if ii == 0 {
			ii = 1
		}
		c.sfuFree = now + ii
		latency = uint64(cfg.SFULatency)
		a.SFUWarpInstrs++
		a.SFUThreadInstrs += uint64(lanes)
	case kernel.ClassMem:
		a.MemWarpInstrs++
		var err error
		latency, err = s.memAccess(c, in, info, now)
		if err != nil {
			return err
		}
	default: // control
		a.CtrlWarpInstrs++
		latency = 1
		hasWB = false
	}

	if info.AtBarrier {
		sl.block.atBarrier++
		c.maybeReleaseBarrier(sl.block)
	}
	if info.Finished {
		sl.block.finished++
		a.WSTWrites++
		c.maybeReleaseBarrier(sl.block)
	}

	if class == kernel.ClassCtrl && !hasWB {
		// Control instructions complete immediately; no pipeline slot held.
		s.retireIfDone(c, sl.block)
		return nil
	}

	if cfg.HasScoreboard && hasWB {
		sl.sbRegs[in.Dst>>6] |= 1 << (in.Dst & 63)
		sl.sbN++
		a.SBWrites++
	}
	sl.pendingN++
	sl.block.outstanding++
	isMem := class == kernel.ClassMem
	if isMem {
		sl.memPending++
	}
	c.events.push(wbEvent{cycle: now + latency, slot: slotIdx, reg: in.Dst, hasWB: hasWB, isMem: isMem})
	return nil
}

// memAccess routes a memory instruction through the LDST unit: AGU, then the
// space-specific path. It returns the dependency latency.
func (s *gpuSim) memAccess(c *coreState, in *kernel.Instr, info *kernel.StepInfo, now uint64) (uint64, error) {
	a := &s.act
	cfg := c.cfg
	lanes := info.ActiveLanes

	// AGU: sub-AGUs generate 8 addresses per cycle.
	a.AGUAddresses += uint64(lanes)
	aguCycles := uint64((lanes + 7) / 8)
	if aguCycles == 0 {
		aguCycles = 1
	}

	switch in.Space {
	case kernel.SpaceShared:
		extra := smemExtraCycles(info, cfg.SMemBanks)
		a.SMemAccesses += uint64(lanes)
		a.SMemConflicts += uint64(extra)
		c.ldstFree = now + aguCycles + uint64(extra)
		return uint64(cfg.SMemLatency) + uint64(extra), nil

	case kernel.SpaceConst, kernel.SpaceParam:
		addrs := constDistinctAddrs(info, c.addrBuf[:0])
		c.addrBuf = addrs
		a.ConstReads += uint64(len(addrs))
		worst := uint64(cfg.SMemLatency)
		for _, ad := range addrs {
			res := c.ccache.Access(uint64(ad), false)
			if !res.Hit {
				a.ConstMisses++
				done := s.mem.globalSegment(now, constRegionBase+ad, cfg.ConstLineB, false, a)
				if done-now > worst {
					worst = done - now
				}
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(addrs)-1)
		return worst, nil

	case kernel.SpaceTexture:
		if c.tcache == nil {
			return 0, fmt.Errorf("sim: texture access on %s, which has no texture cache configured", cfg.Name)
		}
		// Per-lane addresses collapse to distinct cache lines (deduplicated
		// in lane order, so cache behaviour is deterministic); hits are
		// served at L1-like latency, misses fetch the line from memory.
		lines := c.lineBuf[:0]
		for l := 0; l < kernel.WarpSize; l++ {
			if info.ExecMask&(1<<l) == 0 {
				continue
			}
			line := info.Addrs[l] &^ uint32(cfg.TexLineB-1)
			dup := false
			for _, seen := range lines {
				if seen == line {
					dup = true
					break
				}
			}
			if !dup {
				lines = append(lines, line)
			}
		}
		c.lineBuf = lines
		worst := uint64(cfg.SMemLatency) + 12 // TMU addressing + filtering pipe
		for _, line := range lines {
			a.TexReads++
			if res := c.tcache.Access(uint64(line), false); !res.Hit {
				a.TexMisses++
				done := s.mem.globalSegment(now, line, cfg.TexLineB, false, a)
				if done-now > worst {
					worst = done - now
				}
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(lines))
		return worst, nil

	case kernel.SpaceGlobal:
		write := in.Op == kernel.OpSt
		segs := coalesce(info, c.segBuf[:0])
		c.segBuf = segs
		a.CoalescerQueries++
		a.CoalescedReqs += uint64(len(segs))
		a.PRTWrites += uint64(len(segs))
		var worst uint64
		for _, seg := range segs {
			segDone := s.globalThroughL1(c, now, seg, write)
			if segDone > worst {
				worst = segDone
			}
		}
		c.ldstFree = now + aguCycles + uint64(len(segs))
		if write {
			// Stores retire once handed to the memory system.
			return 4, nil
		}
		if worst <= now {
			worst = now + uint64(cfg.SMemLatency)
		}
		return worst - now, nil
	}
	return 0, fmt.Errorf("sim: unhandled memory space %v", in.Space)
}

// globalThroughL1 sends one segment through the per-core L1 (when present)
// and on to the shared memory system, returning its completion cycle.
func (s *gpuSim) globalThroughL1(c *coreState, now uint64, seg uint32, write bool) uint64 {
	a := &s.act
	if c.l1 != nil {
		res := c.l1.Access(uint64(seg), write)
		if write {
			a.L1Writes++
			// Write-through: always forwarded.
			return s.mem.globalSegment(now, seg, segmentBytes, write, a)
		}
		a.L1Reads++
		if res.Hit {
			return now + uint64(c.cfg.SMemLatency) + 8
		}
		a.L1Misses++
	}
	return s.mem.globalSegment(now, seg, segmentBytes, write, a)
}
