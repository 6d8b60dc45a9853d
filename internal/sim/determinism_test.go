package sim_test

// The determinism contract of the timing stage: whether a benchmark runs on
// the event-driven or the dense clock loop; simulated fresh, or through the
// result cache cold, warm or from its disk spill; alone or side by side with
// other simulations — each run equals the event-driven, fresh, lone run in
// every activity counter, the derived results, the power report priced from
// them and the final global-memory image. One table of modes checks it; each
// equivalence test below selects its rows. Run under -race via make ci.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/power"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
)

// path is how a row's launches reach the simulator.
type path int

const (
	fresh path = iota // sim.New(cfg).Run
	cold              // a private simcache.Cache, empty at the row's start
	warm              // the cold row's cache again: every launch replays
	disk              // a second private cache over the cold row's spill directory
)

// mode is one row of the determinism table.
type mode struct {
	dense bool
	path  path
	n     int // simulations at once; 1 runs alone
}

func (m mode) String() string {
	return fmt.Sprintf("dense=%v/%s/x%d", m.dense, [...]string{"fresh", "cold", "warm", "disk"}[m.path], m.n)
}

// outcome is what one simulation of a benchmark leaves behind.
type outcome struct {
	res   []*sim.Result
	power []*power.RuntimeReport
	mem   []uint32 // final allocation high-water mark, word length, then the stored words
	hits  int      // launches the cache replayed
}

// makeInstance builds a fresh instance of a Table I benchmark or of one of
// hostKernels.
func makeInstance(name string) (*bench.Instance, error) {
	if mk, ok := hostKernels[name]; ok {
		return hostInstance(mk())
	}
	f, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return f.Make()
}

// hostKernels are unit-bound kernels built on the host, as the
// microbenchmark and DVFS experiments build theirs: most of their failed
// issue attempts find the SP, SFU or LD/ST unit busy rather than a hazard.
var hostKernels = map[string]func() (*kernel.Launch, *kernel.GlobalMem){
	// fpBusy is the DVFS study's kernel: eight dependent FFMAs per loop
	// iteration keep the SP units saturated.
	"fpBusy": func() (*kernel.Launch, *kernel.GlobalMem) {
		b := kernel.NewBuilder("fpBusy", 8).Params(1)
		b.SReg(0, kernel.SpecTidX)
		b.I2F(1, kernel.R(0))
		b.MovI(2, 0)
		b.Label("loop")
		for i := 0; i < 8; i++ {
			b.FFma(1, kernel.R(1), kernel.F(1.0001), kernel.F(0.5))
		}
		b.IAdd(2, kernel.R(2), kernel.I(1))
		b.ISet(3, kernel.CmpLT, kernel.R(2), kernel.I(10))
		b.When(3).Bra("loop", "exit")
		b.Label("exit")
		b.LdParam(4, 0)
		b.IShl(5, kernel.R(0), kernel.I(2))
		b.IAdd(4, kernel.R(4), kernel.R(5))
		b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(1), 0)
		b.Exit()
		return hostLaunch(b.MustBuild(), 24, 256)
	},
	// unitMix interleaves independent SP, SFU and shared-memory work, so
	// warps queue for all three units at once, and the SFU and LD/ST units
	// are shared by every scheduler of a core.
	"unitMix": func() (*kernel.Launch, *kernel.GlobalMem) {
		b := kernel.NewBuilder("unitMix", 12).Params(1).SMem(256 * 4)
		b.SReg(0, kernel.SpecTidX)
		b.I2F(1, kernel.R(0))
		b.IShl(2, kernel.R(0), kernel.I(2))
		b.MovI(3, 0)
		b.Label("loop")
		for i := 0; i < 4; i++ {
			b.FFma(4, kernel.R(1), kernel.F(1.0001), kernel.F(0.5))
			b.Sin(5, kernel.R(1))
			b.St(kernel.SpaceShared, kernel.R(2), kernel.R(4), 0)
			b.FMul(6, kernel.R(1), kernel.F(0.999))
			b.Rsq(7, kernel.R(4))
			b.Ld(kernel.SpaceShared, 8, kernel.R(2), 0)
			b.FAdd(1, kernel.R(5), kernel.R(6))
			b.FAdd(1, kernel.R(1), kernel.R(7))
			b.FAdd(1, kernel.R(1), kernel.R(8))
		}
		b.IAdd(3, kernel.R(3), kernel.I(1))
		b.ISet(9, kernel.CmpLT, kernel.R(3), kernel.I(4))
		b.When(9).Bra("loop", "exit")
		b.Label("exit")
		b.LdParam(10, 0)
		b.IAdd(10, kernel.R(10), kernel.R(2))
		b.St(kernel.SpaceGlobal, kernel.R(10), kernel.R(1), 0)
		b.Exit()
		return hostLaunch(b.MustBuild(), 24, 256)
	},
}

// hostLaunch launches prog as blocks blocks of threads threads, with the
// address of a one-word-per-thread output buffer as its one parameter.
func hostLaunch(prog *kernel.Program, blocks, threads int) (*kernel.Launch, *kernel.GlobalMem) {
	mem := kernel.NewGlobalMem()
	out := mem.Alloc(threads * 4)
	return &kernel.Launch{
		Prog:   prog,
		Grid:   kernel.Dim{X: blocks, Y: 1},
		Block:  kernel.Dim{X: threads, Y: 1},
		Params: []uint32{out},
	}, mem
}

// hostInstance wraps a host-built launch as a one-run instance whose
// Verify compares the final image with the functional interpreter's.
func hostInstance(l *kernel.Launch, mem *kernel.GlobalMem) (*bench.Instance, error) {
	ref := kernel.NewGlobalMem()
	ref.Restore(mem.Snapshot())
	if _, err := kernel.Interp(l, ref, nil); err != nil {
		return nil, err
	}
	want := ref.Snapshot()
	return &bench.Instance{
		Name: l.Prog.Name,
		Mem:  mem,
		Runs: []bench.Run{{Name: l.Prog.Name, Launch: l}},
		Verify: func() error {
			if got := mem.Snapshot(); !reflect.DeepEqual(got, want) {
				return errors.New("final image differs from the interpreter's")
			}
			return nil
		},
	}, nil
}

// simulate runs every launch of a fresh instance of the named benchmark on
// g, through c unless it is nil, prices each result under g's
// configuration and verifies the benchmark's outputs. Through a cache it
// also checks each launch's key against KeyFor over its input image.
func simulate(g *sim.GPU, c *simcache.Cache, benchName string) (*outcome, error) {
	pm, err := power.New(g.Config())
	if err != nil {
		return nil, err
	}
	inst, err := makeInstance(benchName)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	for _, r := range inst.Runs {
		var res *sim.Result
		if c == nil {
			res, err = g.Run(r.Launch, inst.Mem, r.CMem)
		} else {
			// The key oracle: whether the cache hashed the image or took
			// the key from its chain memo, the key is KeyFor's over the
			// launch's input image.
			in := kernel.NewGlobalMem()
			in.Restore(inst.Mem.Snapshot())
			var tr *simcache.TimingResult
			if tr, err = c.Run(g, r.Launch, inst.Mem, r.CMem); err == nil {
				res = tr.Perf
				if tr.CacheHit {
					o.hits++
				}
				if want := simcache.KeyFor(g.Config(), r.Launch, in, r.CMem); tr.Key != want {
					err = fmt.Errorf("cache keyed the launch %x, KeyFor of its input image %x", tr.Key, want)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %v", benchName, r.Name, err)
		}
		rep, err := pm.Evaluate(res)
		if err != nil {
			return nil, err
		}
		o.res = append(o.res, res)
		o.power = append(o.power, rep)
	}
	if err := inst.Verify(); err != nil {
		return nil, fmt.Errorf("%s failed functional verification: %v", benchName, err)
	}
	img := inst.Mem.Snapshot()
	o.mem = append([]uint32{img.Next, uint32(img.Len)}, img.Words...)
	return o, nil
}

// runFresh simulates the named benchmark on a new simulator for cfg.
func runFresh(t *testing.T, cfg *config.GPU, benchName string) *outcome {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := simulate(g, nil, benchName)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// atOnce runs run(0) … run(n-1) side by side and joins their errors.
func atOnce(n int, run func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(i); err != nil {
				errs[i] = fmt.Errorf("simulation %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sameRun reports every way got differs from want: activity counters first,
// field by field, then the rest of each launch's result, its power report,
// and the final memory image.
func sameRun(t *testing.T, row string, want, got *outcome) {
	t.Helper()
	if len(got.res) != len(want.res) {
		t.Fatalf("%s: %d launches, want %d", row, len(got.res), len(want.res))
	}
	for i, w := range want.res {
		switch g := got.res[i]; {
		case !reflect.DeepEqual(g.Activity, w.Activity):
			t.Errorf("%s launch %d: activity counters diverge:\n%s", row, i, activityDiff(w.Activity, g.Activity))
		case !reflect.DeepEqual(g, w):
			t.Errorf("%s launch %d: derived results diverge:\ngot:  %+v\nwant: %+v", row, i, g, w)
		case !reflect.DeepEqual(got.power[i], want.power[i]):
			t.Errorf("%s launch %d: power reports diverge:\ngot:  %+v\nwant: %+v", row, i, got.power[i], want.power[i])
		}
	}
	if !slices.Equal(got.mem, want.mem) {
		t.Errorf("%s: final global-memory image diverges", row)
	}
}

// table runs the modes of one benchmark on one configuration against the
// reference row, event/fresh/alone.
type table struct {
	cfg    func() *config.GPU
	bench  string
	ref    *outcome
	caches map[bool]*simcache.Cache // per clock loop (dense): the cold row's cache
	dirs   map[bool]string          // and its spill directory
}

func newTable(t *testing.T, cfg func() *config.GPU, benchName string) *table {
	t.Helper()
	return &table{cfg: cfg, bench: benchName, ref: runFresh(t, cfg(), benchName),
		caches: map[bool]*simcache.Cache{}, dirs: map[bool]string{}}
}

// row runs mode m and compares each of its simulations with the reference.
// A warm or disk row reads the cache of the same clock loop's cold row,
// which must have run before it in the same test.
func (tb *table) row(t *testing.T, m mode) {
	t.Helper()
	var c *simcache.Cache
	switch m.path {
	case cold:
		c = new(simcache.Cache)
		tb.caches[m.dense], tb.dirs[m.dense] = c, t.TempDir()
	case warm:
		c = tb.caches[m.dense]
	case disk:
		c = new(simcache.Cache)
	}
	if m.path == cold || m.path == disk {
		if err := c.SetDir(tb.dirs[m.dense]); err != nil {
			t.Fatal(err)
		}
	}
	var chained uint64
	if c != nil {
		chained = c.Stats().ChainKeys
	}
	outs := make([]*outcome, m.n)
	err := atOnce(m.n, func(i int) error {
		cfg := tb.cfg()
		cfg.DenseClock = m.dense
		g, err := sim.New(cfg)
		if err != nil {
			return err
		}
		outs[i], err = simulate(g, c, tb.bench)
		return err
	})
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	for i, o := range outs {
		row := fmt.Sprintf("%v simulation %d", m, i)
		sameRun(t, row, tb.ref, o)
		if m.path > cold && o.hits != len(o.res) {
			t.Errorf("%s: %d of %d launches replayed, want all", row, o.hits, len(o.res))
		}
	}
	if m.path == disk && c.Stats().DiskHits == 0 {
		t.Errorf("%v: no launch was served from the spill directory", m)
	}
	// Every launch after the first runs on the image the previous one
	// left behind, so a warm row keys those from the chain memo.
	if m.path == warm && len(tb.ref.res) > 1 && c.Stats().ChainKeys == chained {
		t.Errorf("%v: no chained launch was keyed from the chain memo", m)
	}
}

func TestFastForwardEquivalence(t *testing.T) {
	type ffCase struct {
		gpu          func() *config.GPU
		policy       string
		bench        string
		noScoreboard bool // blocking mode: a warp waits for all its writebacks
	}
	cases := []ffCase{
		{gpu: config.GT240, bench: "vectorAdd"},
		{gpu: config.GT240, bench: "BlackScholes"},
		{gpu: config.GT240, bench: "bfs"},
		{gpu: config.GTX580, bench: "vectorAdd"},
		{gpu: config.GTX580, bench: "BlackScholes"},
		{gpu: config.GTX580, bench: "bfs"},
		// Non-default scheduling policies exercise different candidate
		// orderings and arbitration counts during stalls.
		{gpu: config.GTX580, policy: sim.PolicyGTO, bench: "vectorAdd"},
		{gpu: config.GTX580, policy: sim.PolicyTwoLevel, bench: "vectorAdd"},
	}
	// The unit-bound host kernels stall mostly on busy units, where the
	// issue stage skips slots it knows would fail: every policy, with the
	// scoreboard (GTX580) and in blocking mode (GT240 has no scoreboard;
	// GTX580 with it removed keeps its two schedulers).
	for _, k := range []string{"fpBusy", "unitMix"} {
		for _, policy := range []string{sim.PolicyRR, sim.PolicyGTO, sim.PolicyTwoLevel} {
			cases = append(cases,
				ffCase{gpu: config.GT240, policy: policy, bench: k},
				ffCase{gpu: config.GTX580, policy: policy, bench: k},
				ffCase{gpu: config.GTX580, policy: policy, bench: k, noScoreboard: true})
		}
	}
	for _, tc := range cases {
		cfg := func() *config.GPU {
			c := tc.gpu()
			c.SchedulerPolicy = tc.policy
			if tc.noScoreboard {
				c.HasScoreboard = false
			}
			return c
		}
		name := cfg().Name + "/" + tc.bench
		if tc.policy != "" {
			name += "/" + tc.policy
		}
		if tc.noScoreboard {
			name += "/noscoreboard"
		}
		t.Run(name, func(t *testing.T) {
			newTable(t, cfg, tc.bench).row(t, mode{dense: true, path: fresh, n: 1})
		})
	}
}

// TestFastForwardSkips guards the optimization itself
// (TestFastForwardEquivalence would pass with skipping disabled): the dense
// loop steps every busy core every cycle, so its core-steps equal the summed
// CoreBusyCycles, while the event-driven loop must step a core in at most
// half of its busy cycles on a memory-bound kernel.
func TestFastForwardSkips(t *testing.T) {
	cases := []struct {
		gpu   func() *config.GPU
		bench string
	}{
		{config.GT240, "vectorAdd"},
		{config.GTX580, "bfs"},
	}
	for _, tc := range cases {
		for _, dense := range []bool{false, true} {
			cfg := tc.gpu()
			cfg.DenseClock = dense
			t.Run(fmt.Sprintf("%s/%s/dense=%v", cfg.Name, tc.bench, dense), func(t *testing.T) {
				g, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				o, err := simulate(g, nil, tc.bench)
				if err != nil {
					t.Fatal(err)
				}
				var busy uint64
				for _, r := range o.res {
					for _, b := range r.Activity.CoreBusyCycles {
						busy += b
					}
				}
				steps := g.CoreSteps()
				t.Logf("%d core-steps for %d busy core-cycles", steps, busy)
				switch {
				case busy == 0:
					t.Fatal("degenerate run: no busy core-cycles")
				case dense && steps != busy:
					t.Errorf("dense clock took %d core-steps, want one per busy core-cycle (%d)", steps, busy)
				case !dense && 2*steps > busy:
					t.Errorf("event-driven clock took %d core-steps for %d busy core-cycles, want at most half", steps, busy)
				}
			})
		}
	}
}

// TestParallelEquivalence: the simulator steps its cores sequentially, and
// the runner and the fleet get their parallelism by running many
// simulations at once, so simulations side by side must each equal a lone
// run, in both clock loops.
func TestParallelEquivalence(t *testing.T) {
	for _, mk := range []func() *config.GPU{config.GT240, config.GTX580} {
		for _, kname := range []string{"vectorAdd", "BlackScholes", "bfs", "mergeSort"} {
			tb := newTable(t, mk, kname)
			for _, dense := range []bool{false, true} {
				for _, workers := range []int{2, 8} {
					t.Run(fmt.Sprintf("%s/%s/dense=%v/workers=%d", mk().Name, kname, dense, workers), func(t *testing.T) {
						tb.row(t, mode{dense: dense, path: fresh, n: workers})
					})
				}
			}
		}
	}
}

// TestCachedVsFreshEquivalence: for both GPUs and several kernels
// (including multi-kernel benchmarks whose launches chain through the
// memory image), a cold pass through a result cache (misses fill it), a
// warm pass (every launch replays) and a pass through a second cache over
// the first one's spill directory must each equal a fresh simulation.
func TestCachedVsFreshEquivalence(t *testing.T) {
	for _, mk := range []func() *config.GPU{config.GT240, config.GTX580} {
		for _, kname := range []string{"vectorAdd", "BlackScholes", "bfs", "mergeSort"} {
			t.Run(mk().Name+"/"+kname, func(t *testing.T) {
				tb := newTable(t, mk, kname)
				for _, p := range []path{cold, warm, disk} {
					tb.row(t, mode{path: p, n: 1})
				}
			})
		}
	}
}

// TestPooledWarpStateIsolation drives more blocks through a small GPU than
// can be resident at once, so retired warps and block contexts recycle
// through the per-core pools many times. Block 0 poisons a register and its
// shared memory; every other block stores the same never-written register
// plus the same never-written shared word, and must observe zeros — a
// pooled warp or block context leaking state across blocks shows up as the
// poison value in a later block's output. Each subtest runs that many such
// simulations at once.
func TestPooledWarpStateIsolation(t *testing.T) {
	const (
		blocks  = 256
		threads = 16 // partial warp: lane masks must reset too
		poison  = 0xBEEF
	)
	b := kernel.NewBuilder("poolIsolation", 8)
	b.Params(1)
	b.SMem(4 * threads)
	// r0 = global thread id (r1, r2 scratch).
	b.SReg(0, kernel.SpecTidX)
	b.SReg(1, kernel.SpecCtaX)
	b.SReg(2, kernel.SpecNTidX)
	b.IMad(0, kernel.R(1), kernel.R(2), kernel.R(0))
	// r6 = (ctaX == 0); r2 = shared-memory offset of this thread's word.
	b.SReg(5, kernel.SpecCtaX)
	b.ISet(6, kernel.CmpEQ, kernel.R(5), kernel.I(0))
	b.SReg(1, kernel.SpecTidX)
	b.IShl(2, kernel.R(1), kernel.I(2))
	// Block 0 poisons r7 and its shared-memory word; everyone else leaves
	// both untouched and must read them back as zero.
	b.When(6).MovI(7, poison)
	b.When(6).St(kernel.SpaceShared, kernel.R(2), kernel.R(7), 0)
	b.Bar()
	b.Ld(kernel.SpaceShared, 3, kernel.R(2), 0)
	b.IAdd(3, kernel.R(3), kernel.R(7))
	// out[gtid] = r3 + r7's contribution.
	b.IShl(4, kernel.R(0), kernel.I(2))
	b.LdParam(1, 0)
	b.IAdd(4, kernel.R(4), kernel.R(1))
	b.St(kernel.SpaceGlobal, kernel.R(4), kernel.R(3), 0)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// run simulates the kernel on its own GPU and memory and checks the
	// output, reporting through its error so that atOnce can run it.
	run := func(int) error {
		g, err := sim.New(config.GT240())
		if err != nil {
			return err
		}
		mem := kernel.NewGlobalMem()
		const outBase = 0x1000
		for i := 0; i < blocks*threads; i++ {
			mem.Write32(outBase+uint32(4*i), 0xDEADDEAD)
		}
		l := &kernel.Launch{
			Prog:   prog,
			Grid:   kernel.Dim{X: blocks, Y: 1},
			Block:  kernel.Dim{X: threads, Y: 1},
			Params: []uint32{outBase},
		}
		if _, err := g.Run(l, mem, nil); err != nil {
			return err
		}
		for i := 0; i < blocks*threads; i++ {
			want := uint32(0)
			if i < threads { // block 0 sees its own poison twice
				want = 2 * poison
			}
			if got := mem.Read32(outBase + uint32(4*i)); got != want {
				return fmt.Errorf("thread %d (block %d): out = %#x, want %#x — pooled state leaked across blocks",
					i, i/threads, got, want)
			}
		}
		return nil
	}

	// workers simulations of the same program run side by side: pools are
	// per core of each GPU, so nothing may leak between simulations either.
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if err := atOnce(workers, run); err != nil {
				t.Error(err)
			}
		})
	}
}
