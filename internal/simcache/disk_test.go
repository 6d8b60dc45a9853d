package simcache

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
)

// A fresh cache sharing a spill directory with an earlier one (a
// "restarted process") must serve the key from disk without simulating,
// bit-identically to the original run.
func TestDiskSpillAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	cfg := config.GT240()

	var c1 Cache
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l1, mem1 := testKernel(4, 8, 77)
	tr1, err := c1.Run(newSim(t, cfg), l1, mem1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("first run: %+v", st)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 spilled entry, got %v (%v)", files, err)
	}

	var c2 Cache
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l2, mem2 := testKernel(4, 8, 77)
	tr2, err := c2.Run(newSim(t, cfg), l2, mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Misses != 0 || st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("disk run: %+v", st)
	}
	if !tr2.CacheHit {
		t.Error("disk-served run should report a cache hit")
	}
	if !reflect.DeepEqual(tr1.Perf, tr2.Perf) {
		t.Error("disk replay diverged from fresh simulation")
	}
	if tr1.MemHash != tr2.MemHash {
		t.Error("final-image hash diverged")
	}
	if mem1.ContentDigest() != mem2.ContentDigest() {
		t.Error("replayed memory image diverged")
	}
}

// A corrupt or truncated spill file is a miss, never an error.
func TestDiskSpillCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cfg := config.GT240()

	var c1 Cache
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l1, mem1 := testKernel(4, 8, 78)
	if _, err := c1.Run(newSim(t, cfg), l1, mem1, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.gob"))
	if len(files) != 1 {
		t.Fatalf("want 1 spilled entry, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	var c2 Cache
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l2, mem2 := testKernel(4, 8, 78)
	tr, err := c2.Run(newSim(t, cfg), l2, mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("corrupt entry must re-simulate")
	}
	if st := c2.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("corrupt-entry run: %+v", st)
	}
}

// A spilled entry whose MemHash does not hash its final image is corrupt:
// the digest keys the next launch on that image, so the load is a miss.
func TestDiskSpillMemHashMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := config.GT240()

	var c1 Cache
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l1, mem1 := testKernel(4, 8, 80)
	if _, err := c1.Run(newSim(t, cfg), l1, mem1, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.gob"))
	if len(files) != 1 {
		t.Fatalf("want 1 spilled entry, got %v", files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var de diskEntry
	err = gob.NewDecoder(f).Decode(&de)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	de.MemHash[7] ^= 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&de); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var c2 Cache
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	l2, mem2 := testKernel(4, 8, 80)
	tr, err := c2.Run(newSim(t, cfg), l2, mem2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("an entry with a flipped MemHash must re-simulate")
	}
	if st := c2.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("flipped-MemHash run: %+v", st)
	}
}

// The spill is per-cache-directory: with no directory configured nothing
// is written.
func TestDiskSpillDisabled(t *testing.T) {
	var c Cache
	l, mem := testKernel(4, 8, 79)
	if _, err := c.Run(newSim(t, config.GT240()), l, mem, nil); err != nil {
		t.Fatal(err)
	}
	if d := c.spillDir(); d != "" {
		t.Fatalf("unexpected spill dir %q", d)
	}
}

// An entry whose final image has nonzero words past its high-water mark
// (an out-of-range kernel store grows the words, not the mark) and a zero
// tail after them spills without the tail, and a restarted cache replays
// the full image from it: the same words, length, size and MemHash.
func TestDiskSpillTrimmedEntry(t *testing.T) {
	dir := t.TempDir()
	g := newSim(t, config.GT240())
	run := func(c *Cache) (*TimingResult, *kernel.GlobalMem) {
		t.Helper()
		mem := kernel.NewGlobalMem()
		mem.Alloc(256)
		l := pokeLaunch(uint32(4*len(mem.Words())+64), 0x5eed, false)
		tr, err := c.Run(g, l, mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr, mem
	}

	var c1 Cache
	if err := c1.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	tr1, mem1 := run(&c1)
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.gob"))
	if len(files) != 1 {
		t.Fatalf("want 1 spilled entry, got %v", files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var de diskEntry
	err = gob.NewDecoder(f).Decode(&de)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	stored := len(de.Final.Words)
	if de.Final.Len != len(mem1.Words()) || stored >= de.Final.Len {
		t.Fatalf("spilled %d of %d words, image has %d: want the zero tail dropped", stored, de.Final.Len, len(mem1.Words()))
	}
	if stored <= mem1.Size()/4 || de.Final.Words[stored-1] != 0x5eed {
		t.Fatalf("spilled words end at %d (last %#x), want the store past the high-water word %d", stored, de.Final.Words[stored-1], mem1.Size()/4)
	}

	var c2 Cache
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	tr2, mem2 := run(&c2)
	if st := c2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("restarted run: %+v", st)
	}
	if !slices.Equal(mem2.Words(), mem1.Words()) || mem2.Size() != mem1.Size() {
		t.Errorf("disk replay left %d words (size %d), want %d (size %d) or different words",
			len(mem2.Words()), mem2.Size(), len(mem1.Words()), mem1.Size())
	}
	if tr2.MemHash != tr1.MemHash || mem2.ContentDigest() != tr1.MemHash {
		t.Error("disk replay's MemHash or image digest diverged")
	}
}
