package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type entry struct {
	K string `json:"k"`
	N int    `json:"n"`
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "gen"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []entry{{"a", 1}, {"b", 2}, {"c", 3}}
	for _, e := range want {
		l.Append(e)
	}
	var got []entry
	n := l.Replay(func(line []byte) {
		var e entry
		if json.Unmarshal(line, &e) == nil {
			got = append(got, e)
		}
	})
	if n != 3 || len(got) != 3 {
		t.Fatalf("replayed %d lines, decoded %d, want 3", n, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTornTailIsIsolated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gen")
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(entry{"a", 1})
	l.Close()

	// Simulate a crash mid-append: a trailing fragment without newline.
	f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var decoded, skipped int
	n := l2.Replay(func(line []byte) {
		var e entry
		if json.Unmarshal(line, &e) == nil {
			decoded++
		} else {
			skipped++
		}
	})
	if n != 2 || decoded != 1 || skipped != 1 {
		t.Fatalf("replay saw %d lines (%d decoded, %d skipped), want 2/1/1", n, decoded, skipped)
	}
}

func TestCompactTruncatesAndSnapshotLoads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gen")
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(entry{"a", 1})
	snap := map[string]int{"total": 1}
	l.Compact(snap)
	if b, _ := os.ReadFile(filepath.Join(l.Dir(), "journal.ndjson")); len(bytes.TrimSpace(b)) != 0 {
		t.Errorf("journal not truncated after compaction: %q", b)
	}
	var got map[string]int
	if !l.Snapshot(&got) || got["total"] != 1 {
		t.Errorf("snapshot round-trip failed: %v", got)
	}
	// Appends after compaction land in the (now empty) journal.
	l.Append(entry{"b", 2})
	if n := l.Replay(func([]byte) {}); n != 1 {
		t.Errorf("post-compaction journal has %d lines, want 1", n)
	}
}

func TestMissingOrCorruptSnapshotReadsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gen")
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out map[string]int
	if l.Snapshot(&out) {
		t.Error("missing snapshot should report absent")
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l.Snapshot(&out) {
		t.Error("corrupt snapshot should report absent")
	}
}

func TestFreezeDropsWrites(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "gen"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append(entry{"a", 1})
	l.Freeze()
	l.Append(entry{"b", 2})
	l.Compact(map[string]int{"total": 2})
	if n := l.Replay(func([]byte) {}); n != 1 {
		t.Errorf("frozen log accepted writes: %d lines", n)
	}
	var out map[string]int
	if l.Snapshot(&out) {
		t.Error("frozen log wrote a snapshot")
	}
}
