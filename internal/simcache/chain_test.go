package simcache

import (
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// pokeLaunch stores (or atomically adds, when atomic) val at addr from a
// single thread: a kernel-side mutation of the image.
func pokeLaunch(addr, val uint32, atomic bool) *kernel.Launch {
	b := kernel.NewBuilder("poke", 4).Params(2)
	b.LdParam(0, 0)
	b.LdParam(1, 1)
	if atomic {
		b.AtomAdd(2, kernel.R(0), kernel.R(1), 0)
	} else {
		b.St(kernel.SpaceGlobal, kernel.R(0), kernel.R(1), 0)
	}
	b.Exit()
	return &kernel.Launch{
		Prog:   b.MustBuild(),
		Grid:   kernel.Dim{X: 1, Y: 1},
		Block:  kernel.Dim{X: 1, Y: 1},
		Params: []uint32{addr, val},
	}
}

// TestChainKeyServedFromMemo: a launch on the image the cache left behind
// is keyed from the chain memo once the memo holds it, and the key is the
// one KeyFor computes from the image's words.
func TestChainKeyServedFromMemo(t *testing.T) {
	var c Cache
	cfg := config.GT240()
	g := newSim(t, cfg)
	for pass := 0; pass < 2; pass++ {
		l, mem := testKernel(4, 8, 11)
		if _, err := c.Run(g, l, mem, nil); err != nil {
			t.Fatal(err)
		}
		if _, ok := mem.Digest(); !ok {
			t.Fatalf("pass %d: the cache left an image without its digest", pass)
		}
		want := KeyFor(cfg, l, mem, nil)
		tr, err := c.Run(g, l, mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Key != want {
			t.Fatalf("pass %d: chained key %x, KeyFor %x", pass, tr.Key, want)
		}
		if st := c.Stats(); st.ChainKeys != uint64(pass) {
			t.Fatalf("pass %d: %d chained keys, want %d", pass, st.ChainKeys, pass)
		}
	}
	// The memo key covers the launch, not just the image: another
	// geometry on the same image gets its own key.
	l, mem := testKernel(4, 8, 11)
	if _, err := c.Run(g, l, mem, nil); err != nil {
		t.Fatal(err)
	}
	l2 := *l
	l2.Grid.X = 2
	want := KeyFor(cfg, &l2, mem, nil)
	tr, err := c.Run(g, &l2, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Key != want {
		t.Errorf("second launch on a chained image: key %x, KeyFor %x", tr.Key, want)
	}
}

// TestChainKeyFollowsEveryMutation starts each case from a launch whose
// image carries the cache's digest, with the chain memo already holding
// the key of a launch on it, then changes the image through one write
// path. The next launch must be keyed by the changed words, as KeyFor keys
// them, and not by the stale memo entry.
func TestChainKeyFollowsEveryMutation(t *testing.T) {
	cfg := config.GT240()
	g := newSim(t, cfg)
	const at = 256 + 4*5 // a word of testKernel's output buffer
	other := kernel.NewGlobalMem()
	other.AllocI32([]int32{1, 2, 3})
	snap := other.Snapshot()
	poke := func(t *testing.T, m *kernel.GlobalMem, atomic bool) {
		if _, err := g.Run(pokeLaunch(at, 0x5a5a, atomic), m, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, m *kernel.GlobalMem)
	}{
		{"Write32", func(t *testing.T, m *kernel.GlobalMem) { m.Write32(at, 0x5a5a) }},
		{"WriteF32", func(t *testing.T, m *kernel.GlobalMem) { m.WriteF32(at, -3.5) }},
		{"WriteI32Slice", func(t *testing.T, m *kernel.GlobalMem) { m.WriteI32Slice(at, []int32{-1, -2}) }},
		{"WriteF32Slice", func(t *testing.T, m *kernel.GlobalMem) { m.WriteF32Slice(at, []float32{0.25, 8}) }},
		{"Alloc", func(t *testing.T, m *kernel.GlobalMem) { m.Alloc(16) }},
		{"AllocF32", func(t *testing.T, m *kernel.GlobalMem) { m.AllocF32([]float32{1.5}) }},
		{"AllocI32", func(t *testing.T, m *kernel.GlobalMem) { m.AllocI32([]int32{7}) }},
		{"AllocZeroF32", func(t *testing.T, m *kernel.GlobalMem) { m.AllocZeroF32(4) }},
		{"Restore", func(t *testing.T, m *kernel.GlobalMem) { m.Restore(snap) }},
		{"kernel store", func(t *testing.T, m *kernel.GlobalMem) { poke(t, m, false) }},
		{"AtomAdd", func(t *testing.T, m *kernel.GlobalMem) { poke(t, m, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Cache
			l, mem := testKernel(4, 8, 12)
			if _, err := c.Run(g, l, mem, nil); err != nil {
				t.Fatal(err)
			}
			stale := c.keyFor(cfg.TimingKey(), l, mem, nil) // stores the memo entry
			if stale != KeyFor(cfg, l, mem, nil) {
				t.Fatal("memo-served key differs from KeyFor before any mutation")
			}
			tc.mutate(t, mem)
			want := KeyFor(cfg, l, mem, nil)
			if want == stale {
				t.Fatal("the mutation left the image's key unchanged")
			}
			tr, err := c.Run(g, l, mem, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Key != want {
				t.Errorf("next launch keyed %x, KeyFor of the mutated image %x", tr.Key, want)
			}
		})
	}
}
