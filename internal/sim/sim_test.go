package sim

import (
	"strings"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// vecAddProg builds c[i] = a[i] + b[i] with bounds guard.
// Params: 0=a, 1=b, 2=c, 3=n.
func vecAddProg() *kernel.Program {
	b := kernel.NewBuilder("vecadd", 12).Params(4)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	b.LdParam(3, 3)
	b.ISet(4, kernel.CmpGE, kernel.R(0), kernel.R(3))
	b.When(4).Exit()
	b.LdParam(5, 0)
	b.LdParam(6, 1)
	b.LdParam(7, 2)
	b.IShl(8, kernel.R(0), kernel.I(2))
	b.IAdd(5, kernel.R(5), kernel.R(8))
	b.IAdd(6, kernel.R(6), kernel.R(8))
	b.IAdd(7, kernel.R(7), kernel.R(8))
	b.Ld(kernel.SpaceGlobal, 9, kernel.R(5), 0)
	b.Ld(kernel.SpaceGlobal, 10, kernel.R(6), 0)
	b.FAdd(11, kernel.R(9), kernel.R(10))
	b.St(kernel.SpaceGlobal, kernel.R(7), kernel.R(11), 0)
	b.Exit()
	return b.MustBuild()
}

func vecAddLaunch(n, block int, mem *kernel.GlobalMem) (*kernel.Launch, uint32, []float32) {
	av := make([]float32, n)
	bv := make([]float32, n)
	want := make([]float32, n)
	for i := range av {
		av[i] = float32(i%97) * 0.25
		bv[i] = float32((i*7)%31) * 1.5
		want[i] = av[i] + bv[i]
	}
	aAddr := mem.AllocF32(av)
	bAddr := mem.AllocF32(bv)
	cAddr := mem.AllocZeroF32(n)
	return &kernel.Launch{
		Prog:   vecAddProg(),
		Grid:   kernel.Dim{X: (n + block - 1) / block, Y: 1},
		Block:  kernel.Dim{X: block, Y: 1},
		Params: []uint32{aAddr, bAddr, cAddr, uint32(n)},
	}, cAddr, want
}

func runOn(t *testing.T, cfg *config.GPU, l *kernel.Launch, mem *kernel.GlobalMem) *Result {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Run(l, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVecAddCorrectOnBothGPUs(t *testing.T) {
	for _, mk := range []func() *config.GPU{config.GT240, config.GTX580} {
		cfg := mk()
		mem := kernel.NewGlobalMem()
		l, cAddr, want := vecAddLaunch(4096, 128, mem)
		r := runOn(t, cfg, l, mem)
		got := mem.ReadF32Slice(cAddr, len(want))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: c[%d] = %v, want %v", cfg.Name, i, got[i], want[i])
			}
		}
		if r.Activity.Cycles == 0 {
			t.Fatalf("%s: zero cycles", cfg.Name)
		}
		if r.Seconds <= 0 {
			t.Fatalf("%s: non-positive runtime", cfg.Name)
		}
	}
}

func TestActivityCountersPlausible(t *testing.T) {
	cfg := config.GT240()
	mem := kernel.NewGlobalMem()
	l, _, _ := vecAddLaunch(4096, 128, mem)
	r := runOn(t, cfg, l, mem)
	a := r.Activity

	if a.IssuedInstrs == 0 || a.Decodes == 0 || a.ICacheReads == 0 {
		t.Fatal("front-end counters empty")
	}
	if a.IssuedInstrs > a.Decodes {
		t.Errorf("issued %d > decoded %d", a.IssuedInstrs, a.Decodes)
	}
	if a.IntWarpInstrs == 0 || a.FPWarpInstrs == 0 || a.MemWarpInstrs == 0 {
		t.Error("per-class instruction counts missing")
	}
	sum := a.IntWarpInstrs + a.FPWarpInstrs + a.SFUWarpInstrs + a.MemWarpInstrs + a.CtrlWarpInstrs
	if sum != a.IssuedInstrs {
		t.Errorf("class sum %d != issued %d", sum, a.IssuedInstrs)
	}
	if a.RFBankReads == 0 || a.RFBankWrites == 0 {
		t.Error("register file counters empty")
	}
	// 4096 threads, 3 global arrays, 128B segments: each float array touches
	// 4096*4/128 = 128 segments.
	if a.CoalescedReqs < 3*128 {
		t.Errorf("coalesced requests %d below minimum 384", a.CoalescedReqs)
	}
	// Perfectly coalesced: ~4 requests per memory warp instruction would be
	// wildly uncoalesced here; expect close to 1 segment per warp access.
	if a.CoalescedReqs > a.AGUAddresses {
		t.Error("more requests than addresses generated")
	}
	if a.DRAMReadBursts == 0 || a.DRAMWriteBursts == 0 || a.DRAMActivates == 0 {
		t.Error("DRAM counters empty")
	}
	if a.NoCFlits == 0 || a.MCRequests == 0 {
		t.Error("interconnect counters empty")
	}
	if a.BlocksLaunched != uint64(l.Grid.X) {
		t.Errorf("blocks launched %d, want %d", a.BlocksLaunched, l.Grid.X)
	}
	if a.ThreadsLaunched != 4096 {
		t.Errorf("threads launched %d, want 4096", a.ThreadsLaunched)
	}
	if a.GlobalSchedCycles == 0 {
		t.Error("global scheduler cycles empty")
	}
}

func TestClusterAwareDispatch(t *testing.T) {
	// With exactly 4 blocks on a 4-cluster GT240, each cluster must get one.
	cfg := config.GT240()
	mem := kernel.NewGlobalMem()
	l, _, _ := vecAddLaunch(4*64, 64, mem) // 4 blocks
	r := runOn(t, cfg, l, mem)
	busyClusters := 0
	for _, c := range r.Activity.ClusterBusyCycles {
		if c > 0 {
			busyClusters++
		}
	}
	if busyClusters != 4 {
		t.Errorf("busy clusters = %d, want 4 (cluster-aware dispatch)", busyClusters)
	}
	// With 1 block only one cluster may be busy.
	mem2 := kernel.NewGlobalMem()
	l2, _, _ := vecAddLaunch(64, 64, mem2)
	r2 := runOn(t, cfg, l2, mem2)
	busy2 := 0
	for _, c := range r2.Activity.ClusterBusyCycles {
		if c > 0 {
			busy2++
		}
	}
	if busy2 != 1 {
		t.Errorf("busy clusters = %d, want 1", busy2)
	}
}

func TestMoreCoresFaster(t *testing.T) {
	// GTX580 has 16 wider cores at a higher clock: the same kernel must take
	// fewer cycles-per-instruction overall, and strictly less wall time.
	mem1 := kernel.NewGlobalMem()
	l1, _, _ := vecAddLaunch(1<<15, 256, mem1)
	r240 := runOn(t, config.GT240(), l1, mem1)
	mem2 := kernel.NewGlobalMem()
	l2, _, _ := vecAddLaunch(1<<15, 256, mem2)
	r580 := runOn(t, config.GTX580(), l2, mem2)
	if r580.Seconds >= r240.Seconds {
		t.Errorf("GTX580 (%.3g s) should beat GT240 (%.3g s)", r580.Seconds, r240.Seconds)
	}
	if r580.IPC <= r240.IPC {
		t.Errorf("GTX580 IPC %.3f should exceed GT240 IPC %.3f", r580.IPC, r240.IPC)
	}
}

func TestSharedMemoryKernelAndConflicts(t *testing.T) {
	// Stride-N shared accesses: stride 1 conflict-free, stride 16 causes
	// 16-way conflicts on a 16-bank GT240.
	build := func(stride int) *kernel.Program {
		b := kernel.NewBuilder("smem", 10).Params(1).SMem(4096)
		b.SReg(0, kernel.SpecTidX)
		b.IMul(1, kernel.R(0), kernel.I(int32(stride*4)))
		b.IAnd(1, kernel.R(1), kernel.I(4095)) // stay in bounds
		b.St(kernel.SpaceShared, kernel.R(1), kernel.R(0), 0)
		b.Bar()
		b.Ld(kernel.SpaceShared, 2, kernel.R(1), 0)
		b.LdParam(3, 0)
		b.IShl(4, kernel.R(0), kernel.I(2))
		b.IAdd(3, kernel.R(3), kernel.R(4))
		b.St(kernel.SpaceGlobal, kernel.R(3), kernel.R(2), 0)
		b.Exit()
		return b.MustBuild()
	}
	run := func(stride int) *Result {
		mem := kernel.NewGlobalMem()
		out := mem.Alloc(256 * 4)
		l := &kernel.Launch{
			Prog: build(stride), Grid: kernel.Dim{X: 4, Y: 1},
			Block: kernel.Dim{X: 64, Y: 1}, Params: []uint32{out},
		}
		return runOn(t, config.GT240(), l, mem)
	}
	noConf := run(1)
	conf := run(16)
	if noConf.Activity.SMemConflicts != 0 {
		t.Errorf("stride-1 should be conflict free, got %d conflict cycles", noConf.Activity.SMemConflicts)
	}
	if conf.Activity.SMemConflicts == 0 {
		t.Error("stride-16 should conflict on 16 banks")
	}
	if conf.Activity.Cycles <= noConf.Activity.Cycles {
		t.Error("bank conflicts should cost cycles")
	}
	if noConf.Activity.SMemAccesses == 0 {
		t.Error("shared accesses not counted")
	}
}

func TestL2ReducesDRAMTraffic(t *testing.T) {
	// Re-reading the same array from many blocks: with the GTX580 L2 most
	// repeat traffic must be filtered before DRAM.
	prog := func() *kernel.Program {
		b := kernel.NewBuilder("reread", 10).Params(2)
		b.SReg(0, kernel.SpecTidX)
		b.LdParam(1, 0)
		b.IShl(2, kernel.R(0), kernel.I(2))
		b.IAdd(1, kernel.R(1), kernel.R(2)) // same addresses in every block
		b.Ld(kernel.SpaceGlobal, 3, kernel.R(1), 0)
		b.SReg(4, kernel.SpecCtaX)
		b.IMad(5, kernel.R(4), kernel.S(kernel.SpecNTidX), kernel.R(0))
		b.IShl(5, kernel.R(5), kernel.I(2))
		b.LdParam(6, 1)
		b.IAdd(6, kernel.R(6), kernel.R(5))
		b.St(kernel.SpaceGlobal, kernel.R(6), kernel.R(3), 0)
		b.Exit()
		return b.MustBuild()
	}()
	mem := kernel.NewGlobalMem()
	in := mem.AllocZeroF32(256)
	out := mem.AllocZeroF32(256 * 64)
	l := &kernel.Launch{
		Prog: prog, Grid: kernel.Dim{X: 64, Y: 1},
		Block: kernel.Dim{X: 256, Y: 1}, Params: []uint32{in, out},
	}
	r := runOn(t, config.GTX580(), l, mem)
	a := r.Activity
	if a.L2Reads == 0 {
		t.Fatal("L2 unused on GTX580")
	}
	// 512 warp-level reads of the same 1 KB array: without the hierarchy
	// that is 2048 DRAM read bursts; the L1+L2 must filter nearly all of it.
	if a.DRAMReadBursts >= a.L1Reads {
		t.Errorf("cache hierarchy did not filter reads: %d DRAM read bursts vs %d L1 reads",
			a.DRAMReadBursts, a.L1Reads)
	}
	// All written lines must ultimately reach DRAM (write-back + flush):
	// 64 blocks x 256 floats = 64 KB = 2048 32-byte bursts.
	if a.DRAMWriteBursts < 2048 {
		t.Errorf("DRAM write bursts %d below the 2048 the output data requires", a.DRAMWriteBursts)
	}
}

func TestBlockTooLargeErrors(t *testing.T) {
	cfg := config.GT240() // 768 threads/core max
	b := kernel.NewBuilder("big", 4)
	b.Exit()
	p := b.MustBuild()
	l := &kernel.Launch{Prog: p, Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 1024, Y: 1}}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(l, kernel.NewGlobalMem(), nil); err == nil {
		t.Error("1024-thread block should not fit a 768-thread core")
	}
}

func TestInvalidWarpSizeRejected(t *testing.T) {
	cfg := config.GT240()
	cfg.WarpSize = 64
	cfg.MaxThreadsPerCore = cfg.MaxWarpsPerCore * 64
	if _, err := New(cfg); err == nil {
		t.Error("non-32 warp size must be rejected")
	}
}

func TestScoreboardBeatsBlockingIssue(t *testing.T) {
	// A chain of independent FP ops: scoreboarded cores overlap latency,
	// blocking cores cannot. Same machine otherwise.
	prog := func() *kernel.Program {
		b := kernel.NewBuilder("ilp", 16).Params(1)
		b.SReg(0, kernel.SpecTidX)
		b.I2F(1, kernel.R(0))
		for i := 0; i < 8; i++ {
			// Independent ops into distinct registers.
			b.FMul(2+i, kernel.R(1), kernel.F(float32(i)+1))
		}
		b.FAdd(10, kernel.R(2), kernel.R(3))
		b.LdParam(11, 0)
		b.IShl(12, kernel.R(0), kernel.I(2))
		b.IAdd(11, kernel.R(11), kernel.R(12))
		b.St(kernel.SpaceGlobal, kernel.R(11), kernel.R(10), 0)
		b.Exit()
		return b.MustBuild()
	}()
	base := config.GT240()
	sb := config.GT240()
	sb.Name = "GT240-SB"
	sb.HasScoreboard = true
	sb.ScoreboardEntries = 6

	run := func(cfg *config.GPU) uint64 {
		mem := kernel.NewGlobalMem()
		out := mem.Alloc(64 * 4)
		l := &kernel.Launch{Prog: prog, Grid: kernel.Dim{X: 1, Y: 1},
			Block: kernel.Dim{X: 64, Y: 1}, Params: []uint32{out}}
		return runOn(t, cfg, l, mem).Activity.Cycles
	}
	blocking := run(base)
	scoreboarded := run(sb)
	if scoreboarded >= blocking {
		t.Errorf("scoreboard (%d cyc) should beat blocking issue (%d cyc)", scoreboarded, blocking)
	}
}

func TestDivergentKernelRunsAndCounts(t *testing.T) {
	prog := func() *kernel.Program {
		b := kernel.NewBuilder("div", 10).Params(1)
		b.SReg(0, kernel.SpecTidX)
		b.SReg(6, kernel.SpecCtaX)
		b.IMad(0, kernel.R(6), kernel.S(kernel.SpecNTidX), kernel.R(0)) // global id
		b.IAnd(1, kernel.R(0), kernel.I(3))
		b.ISet(2, kernel.CmpEQ, kernel.R(1), kernel.I(0))
		b.When(2).Bra("zero", "join")
		b.IMul(3, kernel.R(0), kernel.I(3))
		b.BraUni("join")
		b.Label("zero")
		b.IMul(3, kernel.R(0), kernel.I(5))
		b.Label("join")
		b.LdParam(4, 0)
		b.IShl(5, kernel.R(0), kernel.I(2))
		b.IAdd(4, kernel.R(4), kernel.R(5))
		b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(3), 0)
		b.Exit()
		return b.MustBuild()
	}()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(128 * 4)
	l := &kernel.Launch{Prog: prog, Grid: kernel.Dim{X: 2, Y: 1},
		Block: kernel.Dim{X: 64, Y: 1}, Params: []uint32{out}}
	r := runOn(t, config.GT240(), l, mem)
	if r.Activity.ReconvPushes == 0 || r.Activity.ReconvPops == 0 {
		t.Error("divergence should move the reconvergence stack")
	}
	vals := mem.ReadI32Slice(out, 128)
	for i, v := range vals {
		want := int32(i * 3)
		if i%4 == 0 {
			want = int32(i * 5)
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	cfg := config.GT240()
	mem := kernel.NewGlobalMem()
	l, _, _ := vecAddLaunch(2048, 128, mem)
	r := runOn(t, cfg, l, mem)
	if r.IPC <= 0 || r.IPC > float64(cfg.NumCores()*cfg.Schedulers) {
		t.Errorf("IPC %.3f implausible", r.IPC)
	}
	if r.ConstHitRate <= 0 || r.ConstHitRate > 1 {
		t.Errorf("const hit rate %v out of range", r.ConstHitRate)
	}
	if f := r.DRAMActiveFraction(cfg.MemChannels); f < 0 || f > 1 {
		t.Errorf("DRAM active fraction %v out of range", f)
	}
	if r.DRAMActiveFraction(0) != 0 {
		t.Error("zero channels must yield zero fraction")
	}
}

func TestActivityWriteTable(t *testing.T) {
	cfg := config.GT240()
	mem := kernel.NewGlobalMem()
	l, _, _ := vecAddLaunch(2048, 128, mem)
	r := runOn(t, cfg, l, mem)
	var buf strings.Builder
	if err := r.Activity.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Execution", "Warp control unit", "Register file",
		"Load/store unit", "Memory system", "Occupancy",
		"coalesced requests", "DRAM activates", "threads launched",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats table missing %q", want)
		}
	}
}

func TestDDR3ConfigRuns(t *testing.T) {
	cfg := config.GT240()
	cfg.MemType = "ddr3"
	cfg.MemDataRateGbps = 1.6
	mem := kernel.NewGlobalMem()
	l, cAddr, want := vecAddLaunch(2048, 128, mem)
	r := runOn(t, cfg, l, mem)
	got := mem.ReadF32Slice(cAddr, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ddr3 config: c[%d] wrong", i)
		}
	}
	// Slower memory: longer bursts, so the memory-bound kernel slows down.
	mem2 := kernel.NewGlobalMem()
	l2, _, _ := vecAddLaunch(2048, 128, mem2)
	fast := runOn(t, config.GT240(), l2, mem2)
	if r.Activity.Cycles <= fast.Activity.Cycles {
		t.Error("DDR3 at 1.6 Gbps should be slower than GDDR5 at 3.4 Gbps")
	}
}

// TestNewKeepsItsOwnConfiguration: a simulator copies its configuration
// and hashes its timing key once, so a later change to the caller's
// configuration reaches neither.
func TestNewKeepsItsOwnConfiguration(t *testing.T) {
	cfg := config.GT240()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.TimingKey()
	if g.TimingKey() != key {
		t.Fatal("TimingKey is not the configuration's")
	}
	cfg.Clusters = 2
	cfg.DRAMLatencyCore *= 3
	if g.TimingKey() != key {
		t.Error("the caller's change moved the simulator's timing key")
	}
	if g.Config().Clusters == 2 || g.Config().DRAMLatencyCore == cfg.DRAMLatencyCore {
		t.Error("the caller's change reached the simulator's configuration")
	}
}
