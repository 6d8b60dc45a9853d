package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// storeDir returns the generation directory a state dir resolves to.
func storeDir(stateDir string) string {
	s, err := openStore(stateDir)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	return s.Dir()
}

// testRecord fabricates one minimal cell record at index i.
func testRecord(i int) *sweep.CellRecord {
	return &sweep.CellRecord{Index: i, Scenario: "svcblock", Config: "GT240"}
}

// The journal round-trips: submissions and transitions (a terminal one
// with its record count and digest) written by one store instance are
// recovered by the next, in order, folded over the snapshot's ETA
// calibration.
func TestStoreJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Compact(&snapshotFile{Version: storeVersion, ETA: &etaEntry{SecPerCell: 0.5, Samples: 3}})
	req := sweep.JobRequest{Scenario: "svcblock", Label: "round-trip"}
	created := time.Now().Truncate(time.Millisecond)
	s.Append(journalEntry{Submit: &storedJob{ID: "job-1", Request: req, State: StateQueued, Created: created}})
	s.Append(journalEntry{Submit: &storedJob{ID: "job-2", Request: req, State: StateQueued, Created: created}})
	started := created.Add(time.Second)
	s.Append(journalEntry{State: &stateEntry{ID: "job-1", State: StateRunning, At: started}})
	digest := recordDigest([]*sweep.CellRecord{testRecord(0)})
	s.Append(journalEntry{State: &stateEntry{ID: "job-1", State: StateDone, At: started.Add(time.Second), Count: 1, Digest: digest}})
	s.Close()

	s2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs := recoverStore(s2)
	if rs.Skipped != 0 {
		t.Errorf("skipped %d entries in a clean journal", rs.Skipped)
	}
	if len(rs.Jobs) != 2 || rs.Jobs[0].ID != "job-1" || rs.Jobs[1].ID != "job-2" {
		t.Fatalf("recovered jobs: %+v", rs.Jobs)
	}
	j1 := rs.Jobs[0]
	if j1.State != StateDone || j1.Started == nil || !j1.Started.Equal(started) || j1.Finished == nil {
		t.Errorf("job-1 transitions lost: %+v", j1)
	}
	if j1.Count != 1 || j1.Digest != digest {
		t.Errorf("job-1 record stream: count %d digest %s, want 1 and %s", j1.Count, j1.Digest, digest)
	}
	if j1.Request.Label != "round-trip" {
		t.Errorf("request lost: %+v", j1.Request)
	}
	if rs.Jobs[1].State != StateQueued {
		t.Errorf("job-2 state: %s", rs.Jobs[1].State)
	}
	if rs.NextID != 2 {
		t.Errorf("NextID %d, want 2 (derived from job IDs)", rs.NextID)
	}
	if rs.ETA == nil || rs.ETA.SecPerCell != 0.5 || rs.ETA.Samples != 3 {
		t.Errorf("eta calibration lost: %+v", rs.ETA)
	}
}

// A torn journal tail — the half-written line a crash mid-append leaves —
// is skipped without losing the intact entries before it, and corrupt
// lines never crash recovery.
func TestStoreCorruptTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(journalEntry{Submit: &storedJob{ID: "job-1", Request: sweep.JobRequest{Scenario: "svcblock"}, State: StateQueued, Created: time.Now()}})
	s.Append(journalEntry{State: &stateEntry{ID: "job-1", State: StateRunning, At: time.Now()}})
	s.Close()

	// Tear the tail: a crash mid-write leaves a prefix of the last line.
	f, err := os.OpenFile(filepath.Join(storeDir(dir), "journal.ndjson"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"state":{"id":"job-1","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs := recoverStore(s2)
	if rs.Skipped != 1 {
		t.Errorf("skipped %d lines, want exactly the torn tail", rs.Skipped)
	}
	if len(rs.Jobs) != 1 || rs.Jobs[0].State != StateRunning {
		t.Fatalf("intact entries lost: %+v", rs.Jobs)
	}
}

// Compaction folds the journal into the snapshot and truncates it; a
// crash between the rename and the truncate leaves already-folded journal
// entries, whose replay must be idempotent (no duplicated jobs, no
// regressed state).
func TestStoreCompactionIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	submit := journalEntry{Submit: &storedJob{ID: "job-1", Request: sweep.JobRequest{Scenario: "svcblock"}, State: StateQueued, Created: time.Now()}}
	done := journalEntry{State: &stateEntry{ID: "job-1", State: StateDone, At: time.Now()}}
	s.Append(submit)
	s.Append(done)
	s.Compact(&snapshotFile{Version: storeVersion, NextID: 1, Jobs: []*storedJob{{
		ID: "job-1", Request: sweep.JobRequest{Scenario: "svcblock"},
		State: StateDone, Created: time.Now(),
	}}})
	if b, _ := os.ReadFile(filepath.Join(s.Dir(), "journal.ndjson")); len(b) != 0 {
		t.Fatalf("journal not truncated by compaction: %q", b)
	}
	// Simulate the crash window: re-append the entries the snapshot already
	// folded, as if the truncate had never happened.
	s.Append(submit)
	s.Append(done)
	s.Close()

	s2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs := recoverStore(s2)
	if len(rs.Jobs) != 1 {
		t.Fatalf("stale journal replay duplicated jobs: %+v", rs.Jobs)
	}
	if rs.Jobs[0].State != StateDone || rs.NextID != 1 {
		t.Errorf("replay regressed state: %+v nextID=%d", rs.Jobs[0], rs.NextID)
	}
}

// Forget entries remove jobs (retention pruning's durable half), and an
// unreadable snapshot degrades to an empty start, never a crash.
func TestStoreForgetAndCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(journalEntry{Submit: &storedJob{ID: "job-1", Request: sweep.JobRequest{Scenario: "svcblock"}, State: StateQueued, Created: time.Now()}})
	s.Append(journalEntry{Submit: &storedJob{ID: "job-2", Request: sweep.JobRequest{Scenario: "svcblock"}, State: StateQueued, Created: time.Now()}})
	s.Append(journalEntry{Forget: &forgetEntry{ID: "job-1"}})
	rs := recoverStore(s)
	if len(rs.Jobs) != 1 || rs.Jobs[0].ID != "job-2" {
		t.Errorf("forget not applied: %+v", rs.Jobs)
	}
	if rs.NextID != 2 {
		t.Errorf("NextID %d, want 2: forgotten IDs must never be reused", rs.NextID)
	}
	s.Close()

	if err := os.WriteFile(filepath.Join(storeDir(dir), "snapshot.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rs = recoverStore(s2) // journal still has the submits + forget
	if len(rs.Jobs) != 1 {
		t.Errorf("corrupt snapshot should fall back to the journal: %+v", rs.Jobs)
	}
}

// The store's generation directory is fingerprinted like the simulation
// cache's: state written by a different simulator build is invisible, not
// blindly replayed.
func TestStoreGenerationDir(t *testing.T) {
	dir := t.TempDir()
	got := storeDir(dir)
	want := filepath.Join(dir, "v2-"+simcache.Fingerprint())
	if got != want {
		t.Errorf("generation dir %q, want %q", got, want)
	}
}

// roundTripImage is a real store image: one done job folded into the
// snapshot (with the ETA calibration it fed), and a second job's whole
// lifecycle still in the journal.
func roundTripImage(tb testing.TB) (snapshot, journal []byte) {
	dir := tb.TempDir()
	for _, label := range []string{"snapshotted", "journaled"} {
		m, err := OpenManager(Options{MaxConcurrent: 1, StateDir: dir})
		if err != nil {
			tb.Fatal(err)
		}
		j, err := m.Submit(sweep.JobRequest{Scenario: "svcdrift", Label: label})
		if err != nil {
			tb.Fatal(err)
		}
		for !j.Status().State.terminal() {
			time.Sleep(time.Millisecond)
		}
		if label == "journaled" {
			journal, _ = os.ReadFile(filepath.Join(m.store.Dir(), "journal.ndjson"))
			m.store.Freeze() // the crash image: no compaction at Close
		}
		m.Close()
	}
	snapshot, err := os.ReadFile(filepath.Join(storeDir(dir), "snapshot.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return snapshot, journal
}

// writePathOrder reports whether journal could have come from the write
// path over a snapshot holding the known jobs: every entry follows its
// job's submission, and no job is submitted twice or after its forget.
func writePathOrder(journal []byte, known map[string]bool) bool {
	gone := map[string]bool{}
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil {
			continue // skipped by every replay alike
		}
		switch { // applyEntry's case order
		case e.Submit != nil && e.Submit.ID != "":
			if known[e.Submit.ID] || gone[e.Submit.ID] {
				return false
			}
			known[e.Submit.ID] = true
		case e.State != nil:
			if !known[e.State.ID] {
				return false
			}
		case e.Forget != nil:
			if !known[e.Forget.ID] {
				return false
			}
			delete(known, e.Forget.ID)
			gone[e.Forget.ID] = true
		}
	}
	return true
}

// FuzzStoreRecover feeds recovery's fold arbitrary snapshot and journal
// bytes, in memory. Recovery must never panic. And where the journal is one
// the write path could have produced, replaying it over the snapshot it
// folds to must change nothing: that is the crash window between the
// snapshot rename and the journal truncate, which replays the journal
// twice.
func FuzzStoreRecover(f *testing.F) {
	snap, journal := roundTripImage(f)
	f.Add(snap, journal)
	f.Add([]byte(nil), journal)
	// fold is recoverStore over a snapshot file holding snap and a
	// journal file holding journal.
	fold := func(snap, journal []byte) *recoveredState {
		replay := func(fn func(line []byte)) int {
			n := 0
			for line := range bytes.Lines(journal) {
				fn(line)
				n++
			}
			return n
		}
		var sf snapshotFile
		if json.Unmarshal(snap, &sf) != nil {
			sf = snapshotFile{}
		}
		return foldStore(sf, replay)
	}
	folded := func(t *testing.T, rs *recoveredState) []byte {
		b, err := json.Marshal(snapshotFile{Version: storeVersion, NextID: rs.NextID, ETA: rs.ETA, Jobs: rs.Jobs})
		if err != nil {
			t.Skip("state not representable as JSON:", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		known := map[string]bool{}
		for _, sj := range fold(snap, nil).Jobs {
			known[sj.ID] = true
		}
		once := fold(snap, journal)
		if !writePathOrder(journal, known) {
			return
		}
		want := folded(t, once)
		if got := folded(t, fold(want, journal)); !bytes.Equal(got, want) {
			t.Errorf("replaying the journal over its own fold changed the state:\nonce:  %s\ntwice: %s", want, got)
		}
	})
}
