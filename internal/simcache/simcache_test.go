package simcache

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
)

// testKernel builds a small mixed kernel: per-thread FP work plus a strided
// global store, so both the activity counters and the memory image depend on
// the inputs.
func testKernel(blocks, iters int, seed int32) (*kernel.Launch, *kernel.GlobalMem) {
	b := kernel.NewBuilder("simcacheProbe", 8).Params(1)
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	b.I2F(1, kernel.R(0))
	b.MovI(2, 0)
	b.Label("loop")
	b.FFma(1, kernel.R(1), kernel.F(1.0002), kernel.F(0.125))
	b.IAdd(2, kernel.R(2), kernel.I(1))
	b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(int32(iters)))
	b.When(3).Bra("loop", "store")
	b.Label("store")
	b.LdParam(4, 0)
	b.IShl(5, kernel.R(0), kernel.I(2))
	b.IAdd(4, kernel.R(4), kernel.R(5))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
	b.Exit()
	prog := b.MustBuild()
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(blocks * 64 * 4)
	mem.Write32(out, uint32(seed)) // fold the seed into the input image
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: blocks, Y: 1},
		Block:  kernel.Dim{X: 64, Y: 1},
		Params: []uint32{out},
	}, mem
}

func newSim(t *testing.T, cfg *config.GPU) *sim.GPU {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKeySensitivity(t *testing.T) {
	cfg := config.GT240()
	l, mem := testKernel(4, 8, 1)
	base := KeyFor(cfg, l, mem, nil)

	// Power-side config change: same key.
	pcfg := config.GT240()
	pcfg.ProcessNM = 28
	pcfg.Power.FPOpPJ *= 2
	if KeyFor(pcfg, l, mem, nil) != base {
		t.Error("power-side config change moved the key")
	}
	// Timing-side config change: different key.
	tcfg := config.GT240()
	tcfg.Clusters = 2
	if KeyFor(tcfg, l, mem, nil) == base {
		t.Error("timing-side config change kept the key")
	}
	// Input memory content: different key.
	l2, mem2 := testKernel(4, 8, 2)
	if KeyFor(cfg, l2, mem2, nil) == base {
		t.Error("input memory change kept the key")
	}
	// Launch geometry: different key.
	l3, mem3 := testKernel(8, 8, 1)
	if KeyFor(cfg, l3, mem3, nil) == base {
		t.Error("grid change kept the key")
	}
	// Program content: different key.
	l4, mem4 := testKernel(4, 9, 1)
	if KeyFor(cfg, l4, mem4, nil) == base {
		t.Error("program change kept the key")
	}
	// Constant memory: present vs. absent and content both key.
	cm := kernel.NewConstMem(16)
	withC := KeyFor(cfg, l, mem, cm)
	if withC == base {
		t.Error("constant segment presence kept the key")
	}
	cm.WriteI32Slice(0, []int32{7})
	if KeyFor(cfg, l, mem, cm) == withC {
		t.Error("constant content change kept the key")
	}
}

// TestKeyForPinned pins KeyFor's bytes for the probe kernel on both
// presets, with and without a constant image. Full keys name disk-spilled
// entries and appear in every record as its timingKey, so moving parts of
// the encoding between packages (kernel.Program.AppendKey) must not shift
// them.
func TestKeyForPinned(t *testing.T) {
	l, mem := testKernel(4, 8, 1)
	cm := kernel.NewConstMem(16)
	cm.WriteI32Slice(0, []int32{7})
	for _, tc := range []struct {
		name string
		cfg  *config.GPU
		cmem *kernel.ConstMem
		want string
	}{
		{"GT240", config.GT240(), nil, "95fc6d3d02208f24741542482bf3aaaadc4f90ca90c70cb69e2fc7de2d8cbb5a"},
		{"GT240+const", config.GT240(), cm, "af30b224e66aa9239e6b773731ac8bf0334a2fcbc000d932e0d2c80539167150"},
		{"GTX580+const", config.GTX580(), cm, "7f1e17d0dc392a021b7e3711526ded1708c72db5962cef48fb3f5b615d739437"},
	} {
		if got := fmt.Sprintf("%x", KeyFor(tc.cfg, l, mem, tc.cmem)); got != tc.want {
			t.Errorf("%s: KeyFor %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// TestChainKeySensitivity is TestKeySensitivity for the chain memo's key,
// which stands in for a full key and so must move whenever the full key
// would. Every field of the program and of each instruction is changed in
// turn on a fresh copy (a program's digest is built once), so a field the
// program's key encoding drops fails here.
func TestChainKeySensitivity(t *testing.T) {
	cfg := config.GT240()
	l, mem := testKernel(4, 8, 1)
	d := mem.ContentDigest()
	base := chainKeyFor(cfg.TimingKey(), l, d, nil)
	if chainKeyFor(cfg.TimingKey(), l, d, nil) != base {
		t.Fatal("chainKeyFor is not a function of its inputs")
	}
	moves := func(name string, l *kernel.Launch, cfg *config.GPU, d [32]byte, cmem *kernel.ConstMem) {
		t.Helper()
		if chainKeyFor(cfg.TimingKey(), l, d, cmem) == base {
			t.Errorf("%s kept the chain key", name)
		}
	}

	// Program content: every integer and boolean field of the program and
	// of each of its instructions, operands included (an instruction's op,
	// immediates, branch target and reconvergence point among them), each
	// changed on a fresh copy, since a program's digest is built once.
	withProg := func(edit func(p *kernel.Program)) *kernel.Launch {
		p := &kernel.Program{
			Name:    l.Prog.Name,
			Instrs:  slices.Clone(l.Prog.Instrs),
			NumRegs: l.Prog.NumRegs, SMemBytes: l.Prog.SMemBytes, NumParams: l.Prog.NumParams,
		}
		edit(p)
		l2 := *l
		l2.Prog = p
		return &l2
	}
	if chainKeyFor(cfg.TimingKey(), withProg(func(p *kernel.Program) { p.Name = "renamed" }), d, nil) != base {
		t.Error("renaming the program moved the chain key")
	}
	var fields []string
	leaves(reflect.ValueOf(l.Prog).Elem(), "Program", func(name string, _ reflect.Value) {
		fields = append(fields, name)
	})
	if len(fields) < 3+len(l.Prog.Instrs)*20 {
		t.Fatalf("walked %d program fields, want every instruction's", len(fields))
	}
	for _, field := range fields {
		moves(field, withProg(func(p *kernel.Program) {
			leaves(reflect.ValueOf(p).Elem(), "Program", func(name string, v reflect.Value) {
				if name == field {
					bump(v)
				}
			})
		}), cfg, d, nil)
	}

	// Geometry and arguments.
	grid := *l
	grid.Grid.X++
	moves("grid", &grid, cfg, d, nil)
	param := *l
	param.Params = []uint32{l.Params[0] + 4}
	moves("param", &param, cfg, d, nil)

	// Configuration: timing side moves it, power side does not.
	tcfg := config.GT240()
	tcfg.Clusters = 2
	moves("timing-side config", l, tcfg, d, nil)
	pcfg := config.GT240()
	pcfg.ProcessNM = 28
	pcfg.Power.FPOpPJ *= 2
	if chainKeyFor(pcfg.TimingKey(), l, d, nil) != base {
		t.Error("power-side config change moved the chain key")
	}

	// Images: the global image's digest and the constant image.
	d2 := d
	d2[0] ^= 1
	moves("image digest", l, cfg, d2, nil)
	cm := kernel.NewConstMem(16)
	withC := chainKeyFor(cfg.TimingKey(), l, d, cm)
	moves("constant image presence", l, cfg, d, cm)
	cm.WriteI32Slice(0, []int32{7})
	if chainKeyFor(cfg.TimingKey(), l, d, cm) == withC {
		t.Error("constant content change kept the chain key")
	}
}

// leaves calls f with the name and value of every exported integer or
// boolean field reachable from v through structs, arrays and slices.
func leaves(v reflect.Value, name string, f func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Bool:
		f(name, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				leaves(v.Field(i), name+"."+sf.Name, f)
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leaves(v.Index(i), fmt.Sprintf("%s[%d]", name, i), f)
		}
	}
}

// bump changes an integer or boolean to another value: integers by one,
// booleans flipped.
func bump(v reflect.Value) {
	switch {
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	default:
		v.SetBool(!v.Bool())
	}
}

func TestHitReplaysResultAndMemory(t *testing.T) {
	var c Cache
	g := newSim(t, config.GT240())

	l1, mem1 := testKernel(4, 8, 3)
	tr1, err := c.Run(g, l1, mem1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.CacheHit {
		t.Error("first run reported a hit")
	}

	l2, mem2 := testKernel(4, 8, 3)
	tr2, err := c.Run(g, l2, mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.CacheHit {
		t.Error("identical second run missed")
	}
	if !reflect.DeepEqual(tr1.Perf, tr2.Perf) {
		t.Error("replayed result differs from simulated result")
	}
	if tr1.MemHash != tr2.MemHash {
		t.Error("final memory hash differs between miss and hit")
	}
	if !sameImage(mem1, mem2) {
		t.Error("replayed memory image differs from simulated image")
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 miss / 1 hit", st)
	}

	// The cached master copy must not alias the handed-out results.
	tr2.Perf.Activity.Cycles = 0
	tr2.Perf.Activity.CoreBusyCycles[0] = ^uint64(0)
	l3, mem3 := testKernel(4, 8, 3)
	tr3, err := c.Run(g, l3, mem3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Perf.Activity.Cycles != tr1.Perf.Activity.Cycles ||
		tr3.Perf.Activity.CoreBusyCycles[0] != tr1.Perf.Activity.CoreBusyCycles[0] {
		t.Error("mutating a returned result corrupted the cache")
	}
	// Nor must later writes through a replayed image corrupt the snapshot.
	mem3.Write32(256, 0xDEAD)
	l4, mem4 := testKernel(4, 8, 3)
	if _, err := c.Run(g, l4, mem4, nil); err != nil {
		t.Fatal(err)
	}
	if !sameImage(mem4, mem1) {
		t.Error("writing through a replayed image corrupted the stored snapshot")
	}
}

func TestPowerSideConfigsShareEntries(t *testing.T) {
	var c Cache
	a := newSim(t, config.GT240())
	bcfg := config.GT240()
	bcfg.Name = "GT240@28nm"
	bcfg.ProcessNM = 28
	bcfg.Power.FPOpPJ *= 1.5
	b := newSim(t, bcfg)

	l1, mem1 := testKernel(4, 8, 4)
	if _, err := c.Run(a, l1, mem1, nil); err != nil {
		t.Fatal(err)
	}
	l2, mem2 := testKernel(4, 8, 4)
	tr, err := c.Run(b, l2, mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.CacheHit {
		t.Error("power-side variant did not share the timing result")
	}
}

// probeEntryBytes measures the accounted snapshot size of one
// testKernel(4, ...) entry (the words slice carries allocator slack, so the
// size is derived, not assumed).
func probeEntryBytes(t *testing.T, g *sim.GPU) int64 {
	t.Helper()
	var c Cache
	runProbe(t, &c, g, 99)
	return c.Stats().Bytes
}

// runProbe runs testKernel(4, 8, seed) through the cache and reports whether
// it hit.
func runProbe(t *testing.T, c *Cache, g *sim.GPU, seed int32) bool {
	t.Helper()
	l, mem := testKernel(4, 8, seed)
	tr, err := c.Run(g, l, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.CacheHit
}

// TestLRUEviction bounds a cache to two entries and checks that the
// least-recently-used entry — with recency refreshed by hits, not just
// insertions — is the one evicted.
func TestLRUEviction(t *testing.T) {
	g := newSim(t, config.GT240())
	entryBytes := probeEntryBytes(t, g)

	var c Cache
	c.SetByteBudget(2 * entryBytes)
	runProbe(t, &c, g, 101) // store A
	runProbe(t, &c, g, 102) // store B
	if hit := runProbe(t, &c, g, 101); !hit {
		t.Fatal("A should still be cached") // and A is now MRU
	}
	runProbe(t, &c, g, 103) // store C: evicts B (LRU), not the touched A

	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes != 2*entryBytes {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction / %d bytes", st, 2*entryBytes)
	}
	if hit := runProbe(t, &c, g, 101); !hit {
		t.Error("touched entry A was evicted")
	}
	if hit := runProbe(t, &c, g, 102); hit {
		t.Error("LRU entry B survived eviction")
	}
}

// TestBudgetKeepsNewestEntry: a budget smaller than a single entry must not
// refuse to cache — the newest entry always stays, older ones go.
func TestBudgetKeepsNewestEntry(t *testing.T) {
	g := newSim(t, config.GT240())
	entryBytes := probeEntryBytes(t, g)

	var c Cache
	c.SetByteBudget(entryBytes / 2)
	runProbe(t, &c, g, 201)
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want the oversized entry retained", st)
	}
	if hit := runProbe(t, &c, g, 201); !hit {
		t.Error("oversized entry did not replay")
	}
	runProbe(t, &c, g, 202)
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want old entry evicted for the new one", st)
	}
	if hit := runProbe(t, &c, g, 202); !hit {
		t.Error("newest entry was the one evicted")
	}
}

// TestSetByteBudgetShrinksImmediately: imposing a budget on an over-budget
// cache evicts on the spot; removing the bound stops eviction.
func TestSetByteBudgetShrinksImmediately(t *testing.T) {
	g := newSim(t, config.GT240())
	entryBytes := probeEntryBytes(t, g)

	var c Cache
	for seed := int32(301); seed <= 304; seed++ {
		runProbe(t, &c, g, seed)
	}
	c.SetByteBudget(2 * entryBytes)
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want immediate shrink to 2 entries", st)
	}
	c.SetByteBudget(0)
	runProbe(t, &c, g, 305)
	runProbe(t, &c, g, 306)
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want unbounded growth after budget removal", st)
	}
	// Evicted keys re-simulate and replay bit-identically afterwards.
	if hit := runProbe(t, &c, g, 301); hit {
		t.Error("evicted entry reported a hit")
	}
	if hit := runProbe(t, &c, g, 301); !hit {
		t.Error("re-simulated entry did not re-cache")
	}
}

// TestConcurrentSameKeySingleFlight hammers one key from many goroutines:
// exactly one simulation may run (single-flight), every caller must end with
// the same result and final memory image. Run under -race this also proves
// the cache's concurrency safety.
func TestConcurrentSameKeySingleFlight(t *testing.T) {
	var c Cache
	cfg := config.GT240()
	const n = 16
	type out struct {
		tr  *TimingResult
		mem *kernel.GlobalMem
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			g, err := sim.New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			l, mem := testKernel(4, 8, 6)
			tr, err := c.Run(g, l, mem, nil)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out{tr, mem}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want exactly one simulation", st)
	}
	if st.Hits != n-1 {
		t.Errorf("stats = %+v, want %d hits", st, n-1)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(outs[i].tr.Perf, outs[0].tr.Perf) {
			t.Fatalf("caller %d got a different result", i)
		}
		if !sameImage(outs[i].mem, outs[0].mem) {
			t.Fatalf("caller %d got a different memory image", i)
		}
	}
}

// TestMeasureMemo: a measurement key runs its pass once and then serves
// the stored averages; the entries count towards the byte budget, share
// the timing entries' LRU and go with Reset.
func TestMeasureMemo(t *testing.T) {
	var c Cache
	cfg := config.GT240()
	passes := 0
	pass := func(v float64) func() ([]float64, error) {
		return func() ([]float64, error) { passes++; return []float64{v, v + 1}, nil }
	}
	for i, wantHit := range []bool{false, true} {
		avgs, hit, err := c.Measure(Key{1}, pass(3))
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit || avgs[0] != 3 || avgs[1] != 4 {
			t.Fatalf("call %d: %v, hit %v", i, avgs, hit)
		}
	}
	if _, _, err := c.Measure(Key{2}, func() ([]float64, error) { return nil, errors.New("too short") }); err == nil {
		t.Fatal("a failed pass must return its error")
	}
	st := c.Stats()
	if passes != 1 || st.MeasureHits != 1 || st.MeasureMisses != 1 || st.Bytes != 16 || st.Entries != 0 {
		t.Fatalf("%d passes, stats %+v; want 1 pass, 1 hit, 1 miss, 16 bytes, no timing entries", passes, st)
	}

	// A timing entry and a second measurement over budget: the LRU one goes.
	g := newSim(t, cfg)
	runProbe(t, &c, g, 7)
	c.SetByteBudget(c.Stats().Bytes)
	if _, _, err := c.Measure(Key{3}, pass(5)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("after a store over budget: %+v; want the LRU measurement evicted", st)
	}
	if _, hit, _ := c.Measure(Key{1}, pass(3)); hit {
		t.Fatal("evicted measurement still served")
	}

	c.Reset()
	if _, hit, _ := c.Measure(Key{3}, pass(5)); hit {
		t.Fatal("Reset kept a measurement")
	}
	if st := c.Stats(); st.MeasureHits != 0 || st.MeasureMisses != 1 {
		t.Fatalf("after Reset: %+v; want 1 miss", st)
	}
}

// sameImage reports whether two images have the same word length,
// high-water mark and words.
func sameImage(a, b *kernel.GlobalMem) bool {
	sa, sb := a.Snapshot(), b.Snapshot()
	return sa.Len == sb.Len && sa.Next == sb.Next && slices.Equal(sa.Words, sb.Words)
}
