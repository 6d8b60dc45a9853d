package sim

import (
	"testing"
	"testing/quick"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// stridedLoadKernel loads in[gid*stride] and stores a result.
func stridedLoadKernel(stride int32) *kernel.Program {
	b := kernel.NewBuilder("strided", 12).Params(2)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	b.LdParam(3, 0)
	b.IMul(4, kernel.R(0), kernel.I(stride*4))
	b.IAdd(4, kernel.R(3), kernel.R(4))
	b.Ld(kernel.SpaceGlobal, 5, kernel.R(4), 0)
	b.LdParam(6, 1)
	b.IShl(7, kernel.R(0), kernel.I(2))
	b.IAdd(6, kernel.R(6), kernel.R(7))
	b.St(kernel.SpaceGlobal, kernel.R(6), kernel.R(5), 0)
	b.Exit()
	return b.MustBuild()
}

func runStride(t *testing.T, stride int32) *Result {
	t.Helper()
	mem := kernel.NewGlobalMem()
	const threads = 1024
	in := mem.AllocZeroF32(threads * int(stride))
	out := mem.AllocZeroF32(threads)
	l := &kernel.Launch{
		Prog:   stridedLoadKernel(stride),
		Grid:   kernel.Dim{X: threads / 256, Y: 1},
		Block:  kernel.Dim{X: 256, Y: 1},
		Params: []uint32{in, out},
	}
	g, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Run(l, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCoalescingUnitStride(t *testing.T) {
	// Unit stride: a 32-lane warp covers exactly one 128 B segment per load.
	r := runStride(t, 1)
	a := r.Activity
	// Every global access of a unit-stride warp coalesces to exactly one
	// 128 B segment (param loads go through the constant path, not the
	// coalescer).
	if a.CoalescedReqs != a.CoalescerQueries {
		t.Errorf("unit stride: %d segments for %d coalesced accesses (want 1 per access)",
			a.CoalescedReqs, a.CoalescerQueries)
	}
}

func TestCoalescingScattered(t *testing.T) {
	// Stride 32 (128 B): every lane in its own segment -> 32 requests per
	// load warp; the store side stays coalesced.
	unit := runStride(t, 1)
	scattered := runStride(t, 32)
	if scattered.Activity.CoalescedReqs <= 8*unit.Activity.CoalescedReqs {
		t.Errorf("stride-32 should explode segment count: %d vs unit %d",
			scattered.Activity.CoalescedReqs, unit.Activity.CoalescedReqs)
	}
	if scattered.Activity.Cycles <= unit.Activity.Cycles {
		t.Error("uncoalesced access must cost cycles")
	}
	if scattered.Activity.DRAMReadBursts <= unit.Activity.DRAMReadBursts {
		t.Error("uncoalesced access must cost DRAM traffic")
	}
}

func TestDRAMRowLocality(t *testing.T) {
	// Sequential streaming hits open rows; scattered access activates far
	// more rows per byte moved.
	unit := runStride(t, 1)
	scattered := runStride(t, 32)
	// The scattered footprint touches 32x the rows, so the open-row
	// tracking must issue more activates in total.
	if scattered.Activity.DRAMActivates <= unit.Activity.DRAMActivates {
		t.Errorf("row locality not modeled: %d activates scattered vs %d unit",
			scattered.Activity.DRAMActivates, unit.Activity.DRAMActivates)
	}
}

func TestConstantBroadcast(t *testing.T) {
	// All lanes reading the same constant address need ONE constant access
	// per warp ("if all addresses are equal, the memory access can be
	// serviced with a single constant memory request").
	b := kernel.NewBuilder("cbroadcast", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.Ld(kernel.SpaceConst, 1, kernel.U(16), 0) // uniform address
	b.LdParam(2, 0)
	b.IShl(3, kernel.R(0), kernel.I(2))
	b.IAdd(2, kernel.R(2), kernel.R(3))
	b.St(kernel.SpaceGlobal, kernel.R(2), kernel.R(1), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(256 * 4)
	cmem := kernel.NewConstMem(64)
	cmem.WriteI32Slice(16, []int32{777})
	l := &kernel.Launch{Prog: prog, Grid: kernel.Dim{X: 1, Y: 1},
		Block: kernel.Dim{X: 256, Y: 1}, Params: []uint32{out}}
	g, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Run(l, mem, cmem)
	if err != nil {
		t.Fatal(err)
	}
	// 8 warps, each one broadcast access; LdParam also goes through the
	// constant path (one per warp). Expect exactly 2 per warp = 16.
	if r.Activity.ConstReads != 16 {
		t.Errorf("const reads = %d, want 16 (1 broadcast + 1 param per warp)", r.Activity.ConstReads)
	}
	if got := mem.Read32(out); got != 777 {
		t.Errorf("broadcast value %d, want 777", got)
	}
}

func TestConstantDivergentAddresses(t *testing.T) {
	// Lane-dependent constant addresses serialize into one access per
	// distinct address.
	b := kernel.NewBuilder("cdiverge", 8).Params(1)
	b.SReg(0, kernel.SpecLane)
	b.IShl(1, kernel.R(0), kernel.I(2))
	b.Ld(kernel.SpaceConst, 2, kernel.R(1), 0) // 32 distinct addresses
	b.LdParam(3, 0)
	b.SReg(4, kernel.SpecTidX)
	b.IShl(5, kernel.R(4), kernel.I(2))
	b.IAdd(3, kernel.R(3), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(3), kernel.R(2), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(32 * 4)
	cmem := kernel.NewConstMem(128)
	l := &kernel.Launch{Prog: prog, Grid: kernel.Dim{X: 1, Y: 1},
		Block: kernel.Dim{X: 32, Y: 1}, Params: []uint32{out}}
	g, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Run(l, mem, cmem)
	if err != nil {
		t.Fatal(err)
	}
	// 1 warp: 32 distinct const reads + 1 param read = 33.
	if r.Activity.ConstReads != 33 {
		t.Errorf("const reads = %d, want 33", r.Activity.ConstReads)
	}
}

func TestOccupancyLimitedByRegisters(t *testing.T) {
	// A register-hungry kernel must co-locate fewer blocks per core. GT240:
	// 16384 regs/core; blocks of 256 threads x 64 regs = 16384 -> 1 block.
	mk := func(regs int) *kernel.Launch {
		b := kernel.NewBuilder("reghog", regs).Params(1)
		b.SReg(0, kernel.SpecTidX)
		b.LdParam(1, 0)
		b.IShl(2, kernel.R(0), kernel.I(2))
		b.IAdd(1, kernel.R(1), kernel.R(2))
		b.St(kernel.SpaceGlobal, kernel.R(1), kernel.R(0), 0)
		b.Exit()
		return &kernel.Launch{Prog: b.MustBuild(),
			Grid: kernel.Dim{X: 24, Y: 1}, Block: kernel.Dim{X: 256, Y: 1},
			Params: []uint32{0}}
	}
	run := func(regs int) *Result {
		mem := kernel.NewGlobalMem()
		l := mk(regs)
		l.Params[0] = mem.Alloc(256 * 4)
		g, err := New(config.GT240())
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.Run(l, mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lean := run(8)
	hog := run(64)
	// With 64 regs/thread only 1 block fits per core (vs 3 warps-limited
	// blocks at 8 regs), so the same 24 blocks serialize further.
	if hog.Activity.Cycles <= lean.Activity.Cycles {
		t.Errorf("register pressure should serialize blocks: %d vs %d cycles",
			hog.Activity.Cycles, lean.Activity.Cycles)
	}
}

func TestAGUCountsAddresses(t *testing.T) {
	r := runStride(t, 1)
	a := r.Activity
	// Every memory warp instruction generates one address per active lane:
	// 1024 threads x 2 accesses (1 load + 1 store)... plus param loads.
	if a.AGUAddresses < 2*1024 {
		t.Errorf("AGU addresses %d below the 2048 the data accesses require", a.AGUAddresses)
	}
}

func TestCoalesceHelperProperties(t *testing.T) {
	f := func(addrSeed uint32, mask uint32) bool {
		info := &kernel.StepInfo{ExecMask: mask}
		for l := 0; l < kernel.WarpSize; l++ {
			info.Addrs[l] = addrSeed + uint32(l)*64
		}
		segs := coalesce(info, nil)
		// All segments must be 128-byte aligned and sorted ascending.
		for i, s := range segs {
			if s%segmentBytes != 0 {
				return false
			}
			if i > 0 && segs[i-1] >= s {
				return false
			}
		}
		// Every active lane's address must fall into some segment.
		for l := 0; l < kernel.WarpSize; l++ {
			if mask&(1<<l) == 0 {
				continue
			}
			base := info.Addrs[l] &^ uint32(segmentBytes-1)
			found := false
			for _, s := range segs {
				if s == base {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		// No active lanes -> no segments.
		if mask == 0 && len(segs) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSMemExtraCyclesProperties(t *testing.T) {
	// Broadcast (all lanes same address) is conflict-free on any bank count.
	info := &kernel.StepInfo{ExecMask: kernel.FullMask}
	for l := range info.Addrs {
		info.Addrs[l] = 64
	}
	for _, banks := range []int{16, 32} {
		if extra := smemExtraCycles(info, banks); extra != 0 {
			t.Errorf("broadcast with %d banks: %d extra cycles, want 0", banks, extra)
		}
	}
	// A broadcast plus one distinct address on the same bank: the screen
	// sees the repeat as a broadcast and the second address as a 2-way
	// conflict in the first access group only.
	for l := range info.Addrs {
		info.Addrs[l] = 64
	}
	info.Addrs[5] = 64 + 32*4 // same bank on 16 and 32 banks
	for _, banks := range []int{16, 32} {
		if extra := smemExtraCycles(info, banks); extra != 1 {
			t.Errorf("broadcast plus one address with %d banks: %d extra cycles, want 1", banks, extra)
		}
	}
	// Broadcasts on every bank at once stay conflict-free.
	for l := range info.Addrs {
		info.Addrs[l] = uint32(l%4) * 4
	}
	if extra := smemExtraCycles(info, 16); extra != 0 {
		t.Errorf("per-bank broadcasts: %d extra cycles, want 0", extra)
	}
	// Worst case: all lanes in one group hit one bank with distinct addrs.
	for l := range info.Addrs {
		info.Addrs[l] = uint32(l) * 16 * 4 // same bank on 16 banks
	}
	if extra := smemExtraCycles(info, 16); extra != 2*(16-1) {
		t.Errorf("16-way conflict in both half-warps: %d extra, want 30", extra)
	}
}
