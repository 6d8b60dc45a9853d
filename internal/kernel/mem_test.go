package kernel

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReadsAreSideEffectFree pins the read semantics the simulation-result
// cache depends on: an out-of-range Read32 returns zero without growing the
// image (growth would perturb the image size and its content hash), while
// writes still grow it.
func TestReadsAreSideEffectFree(t *testing.T) {
	m := NewGlobalMem()
	a := m.Alloc(64)
	m.Write32(a, 42)
	before := m.Snapshot()

	if v := m.Read32(1 << 20); v != 0 {
		t.Errorf("out-of-range read = %d, want 0", v)
	}
	if v := m.ReadF32(1 << 21); v != 0 {
		t.Errorf("out-of-range float read = %v, want 0", v)
	}
	if !reflect.DeepEqual(m.Snapshot(), before) {
		t.Error("reads mutated the memory image")
	}
	if m.Read32(a) != 42 {
		t.Error("in-range read broken")
	}

	// Writes beyond the image still grow it.
	m.Write32(1<<20, 7)
	if m.Snapshot().Len <= before.Len {
		t.Error("out-of-range write did not grow the image")
	}
	if m.Read32(1<<20) != 7 {
		t.Error("grown word lost its value")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := NewGlobalMem()
	a := m.AllocI32([]int32{1, 2, 3, 4})
	snap := m.Snapshot()

	m.Write32(a, 99)
	b := m.Alloc(1024)
	m.Write32(b, 5)

	m.Restore(snap)
	if got := m.ReadI32Slice(a, 4); !reflect.DeepEqual(got, []int32{1, 2, 3, 4}) {
		t.Errorf("restored content = %v", got)
	}
	if m.Size() != int(snap.Next) {
		t.Errorf("restored high-water mark = %d, want %d", m.Size(), snap.Next)
	}
	// The snapshot must not alias the live image.
	m.Write32(a, 77)
	if snap.Words[int(a/4)] != 1 {
		t.Error("writing the restored image mutated the snapshot")
	}
}

// TestBulkWritesMatchWordWrites: the slice writers store in-range spans in
// one step and fall back to word-by-word writes past the image end, so
// either way the image — its words, its length and therefore its content
// hash — equals that of writing each word with Write32.
func TestBulkWritesMatchWordWrites(t *testing.T) {
	vs := []int32{1, -2, 3, -4, 5, -6, 7}
	fs := []float32{0.5, -1.25, 3e9}
	for _, tc := range []struct {
		name string
		addr func(m *GlobalMem) uint32
	}{
		{"inside", func(m *GlobalMem) uint32 { return m.Alloc(256) + 8 }},
		{"unaligned", func(m *GlobalMem) uint32 { return m.Alloc(256) + 9 }},
		{"across the end", func(m *GlobalMem) uint32 { m.Alloc(256); return uint32(4*m.Snapshot().Len - 8) }},
		{"past the end", func(m *GlobalMem) uint32 { m.Alloc(256); return uint32(4*m.Snapshot().Len + 64) }},
	} {
		bulk, words := NewGlobalMem(), NewGlobalMem()
		a := tc.addr(bulk)
		if b := tc.addr(words); a != b {
			t.Fatalf("%s: addresses %d and %d", tc.name, a, b)
		}
		bulk.WriteI32Slice(a, vs)
		bulk.WriteF32Slice(a+4, fs)
		for i, v := range vs {
			words.Write32(a+uint32(4*i), uint32(v))
		}
		for i, v := range fs {
			words.WriteF32(a+4+uint32(4*i), v)
		}
		if b, w := bulk.Snapshot(), words.Snapshot(); !reflect.DeepEqual(b, w) {
			t.Errorf("%s: bulk writes left %d words (size %d), word writes %d (size %d), or their contents differ",
				tc.name, b.Len, b.Next, w.Len, w.Next)
		}
	}
}

// TestWriteWordsInPlace: hashing words in place writes exactly the bytes
// of the portable little-endian encoding, across the portable loop's chunk
// boundary.
func TestWriteWordsInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025} {
		ws := make([]uint32, n)
		for i := range ws {
			ws[i] = uint32(i)*0x9e3779b9 ^ 0x01020304
		}
		var got, want bytes.Buffer
		WriteWords(&got, ws)
		writeWordsPortable(&want, ws)
		if !bytes.Equal(got.Bytes(), want.Bytes()) || want.Len() != 4*n {
			t.Errorf("%d words: in-place bytes differ from the portable encoding", n)
		}
	}
}

// TestRestoredImageCopiesOnWrite: an image thawed from a frozen one shares
// its words and carries its digest, so every write path must copy them
// before writing. After each write a new thaw still hashes to the frozen
// digest, and the written image's recorded digest is gone.
func TestRestoredImageCopiesOnWrite(t *testing.T) {
	src := NewGlobalMem()
	a := src.AllocI32([]int32{1, 2, 3, 4})
	src.AllocZeroF32(64)
	frozen := Freeze(src)
	snap := src.Snapshot()
	want := snap.ContentDigest()

	atom := NewBuilder("atom", 4).Params(1)
	atom.LdParam(0, 0)
	atom.AtomAdd(1, R(0), I(5), 0)
	atom.Exit()
	atomProg := atom.MustBuild()

	for _, tc := range []struct {
		name  string
		write func(m *GlobalMem)
	}{
		{"Write32", func(m *GlobalMem) { m.Write32(a, 9) }},
		{"WriteF32", func(m *GlobalMem) { m.WriteF32(a+4, 1.5) }},
		{"WriteI32Slice", func(m *GlobalMem) { m.WriteI32Slice(a, []int32{7, 7}) }},
		{"WriteF32Slice", func(m *GlobalMem) { m.WriteF32Slice(a+8, []float32{2.5, -1}) }},
		{"AllocF32", func(m *GlobalMem) { m.AllocF32([]float32{3, 4}) }},
		{"AllocI32", func(m *GlobalMem) { m.AllocI32([]int32{5, 6}) }},
		{"growth past the end", func(m *GlobalMem) { m.Write32(uint32(4*snap.Len+64), 11) }},
		{"atomic", func(m *GlobalMem) {
			l := &Launch{Prog: atomProg, Grid: Dim{1, 1}, Block: Dim{32, 1}, Params: []uint32{a}}
			env := &Env{Global: m, Const: NewConstMem(0), Block: NewBlockCtx(l, 0, 0)}
			w := NewWarp(0, 32, 4)
			var info StepInfo
			for !w.Finished {
				if err := w.Exec(atomProg, env, &info); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		m := frozen.Thaw()
		if d, ok := m.Digest(); !ok || d != want || m.ContentDigest() != want {
			t.Fatalf("%s: a thawed image carries digest %x (set %v), want its content digest %x", tc.name, d, ok, want)
		}
		tc.write(m)
		if sib := frozen.Thaw(); sib.ContentDigest() != want {
			t.Errorf("%s: writing the thawed image changed the frozen one", tc.name)
		}
		if _, ok := m.Digest(); ok {
			t.Errorf("%s: the write kept the image's digest", tc.name)
		}
		if m.ContentDigest() == want {
			t.Errorf("%s: the write left the image's content unchanged", tc.name)
		}
	}
}
