package kernel

import (
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
	before := append([]uint32(nil), m.Words()...)

	if v := m.Read32(1 << 20); v != 0 {
		t.Errorf("out-of-range read = %d, want 0", v)
	}
	if v := m.ReadF32(1 << 21); v != 0 {
		t.Errorf("out-of-range float read = %v, want 0", v)
	}
	if !reflect.DeepEqual(m.Words(), before) {
		t.Error("reads mutated the memory image")
	}
	if m.Read32(a) != 42 {
		t.Error("in-range read broken")
	}

	// Writes beyond the image still grow it.
	m.Write32(1<<20, 7)
	if len(m.Words()) <= len(before) {
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
		{"across the end", func(m *GlobalMem) uint32 { m.Alloc(256); return uint32(4*len(m.Words()) - 8) }},
		{"past the end", func(m *GlobalMem) uint32 { m.Alloc(256); return uint32(4*len(m.Words()) + 64) }},
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
		if !reflect.DeepEqual(bulk.Words(), words.Words()) || bulk.Size() != words.Size() {
			t.Errorf("%s: bulk writes left %d words, word writes %d, or their contents differ",
				tc.name, len(bulk.Words()), len(words.Words()))
		}
	}
}
