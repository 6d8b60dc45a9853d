package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpusimpow/internal/journal"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// The durable job store: an append-only NDJSON journal plus a compacted
// snapshot under gpowd's -state-dir, so a daemon crash or restart loses
// no job state. The store keeps only what nothing else determines — the
// request, the lifecycle, the cell records and the ETA model's EWMA —
// and every simulation is deterministic, so recovery is safe replay:
// terminal jobs restore with their records, queued jobs re-enqueue in
// submit order, and jobs that were running when the process died come
// back as "interrupted" and re-execute bit-identically. A job's progress
// and report are functions of its plan and records, so neither is
// stored: a recovered done job re-reduces its records on its first
// report. The generation directory is keyed by the build fingerprint, so
// the reducer that re-reduces is the one whose build wrote the records.
//
// The I/O discipline (generation directory, torn-tail-tolerant journal,
// atomic snapshot + truncate, no fsync by design) lives in
// internal/journal, shared with the fleet router's routing table; this
// file owns the job-shaped entry types and the idempotent fold.
//
// Write path: one journal line per event (submission, state transition,
// cell record, EWMA sample, forget). Compaction (at
// recovery, on prune evictions, and at shutdown) folds everything into
// snapshot.json and truncates the journal, which both bounds disk under
// -retain/-retain-age and clears any torn tail so later appends cannot
// concatenate onto it.
//
// Crash windows: the snapshot is renamed into place before the journal is
// truncated, so a crash between the two leaves journal entries that are
// already folded into the snapshot. Replaying them is idempotent by
// construction — submissions of a known job are skipped, state entries
// overwrite, cell entries place by record index — except that a
// job forgotten by the snapshot may be resurrected by its surviving
// journal entries; that is benign (the next prune forgets it again) and
// strictly better than the reverse order, which could lose jobs.

// storeVersion guards the persisted shape; bump on incompatible change.
const storeVersion = 1

// storedJob is one job's persisted form — everything recovery needs to
// rebuild it (the Plan is re-derived from the request).
type storedJob struct {
	ID      string           `json:"id"`
	Request sweep.JobRequest `json:"request"`
	// Key is the client's Idempotency-Key, so retried submissions keep
	// resolving to this job across restarts.
	Key      string     `json:"idempotencyKey,omitempty"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Records are kept for terminal jobs only: a non-terminal job
	// re-executes on recovery and regenerates them deterministically.
	Records []*sweep.CellRecord `json:"records,omitempty"`
}

// stateEntry journals one lifecycle transition.
type stateEntry struct {
	ID    string    `json:"id"`
	State JobState  `json:"state"`
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// cellEntry journals one streamed cell record; Record.Index is its
// position, so replaying a duplicate entry is idempotent.
type cellEntry struct {
	ID     string            `json:"id"`
	Record *sweep.CellRecord `json:"record"`
}

// etaEntry journals the shared ETA model's calibration.
type etaEntry struct {
	SecPerUnit float64 `json:"secPerUnit"`
	Samples    uint64  `json:"samples"`
}

// forgetEntry journals a pruned/canceled-and-pruned job's removal.
type forgetEntry struct {
	ID string `json:"id"`
}

// journalEntry is one journal line; exactly one field is set.
type journalEntry struct {
	Submit *storedJob   `json:"submit,omitempty"`
	State  *stateEntry  `json:"state,omitempty"`
	Cell   *cellEntry   `json:"cell,omitempty"`
	ETA    *etaEntry    `json:"eta,omitempty"`
	Forget *forgetEntry `json:"forget,omitempty"`
}

// snapshotFile is the compacted on-disk state.
type snapshotFile struct {
	Version int `json:"version"`
	// NextID is the highest job number ever assigned, so recovered
	// daemons never reuse a pruned job's ID.
	NextID int          `json:"nextID"`
	ETA    *etaEntry    `json:"eta,omitempty"`
	Jobs   []*storedJob `json:"jobs,omitempty"` // creation order
}

// recoveredState is what recover() hands the Manager.
type recoveredState struct {
	Jobs    []*storedJob // creation order
	NextID  int
	ETA     *etaEntry
	Skipped int // corrupt/unusable journal lines skipped
}

// Store is the journal + snapshot pair for one state directory.
type Store struct {
	dir string // generation directory
	log *journal.Log
}

// openStore opens (creating if needed) the store under stateDir. State
// lives under a generation directory (<state-dir>/v<version>-<build
// fingerprint>/, mirroring internal/simcache/disk.go) so a directory
// shared across simulator versions never replays state an incompatible
// binary wrote.
func openStore(stateDir string) (*Store, error) {
	dir := filepath.Join(stateDir, fmt.Sprintf("v%d-%s", storeVersion, simcache.Fingerprint()))
	l, err := journal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	l.AfterAppend = func() {
		if faultpoint(FaultCrashAfterJournalAppend) {
			fmt.Fprintln(os.Stderr, "gpowd: faultpoint crash-after-journal-append: dying")
			os.Exit(137)
		}
	}
	return &Store{dir: dir, log: l}, nil
}

// append writes one journal line. All failures are swallowed — durability
// degrades, the daemon does not; the in-memory state still serves.
func (s *Store) append(e journalEntry) { s.log.Append(e) }

// freeze drops all future writes — the test stand-in for SIGKILL: what is
// on disk now is exactly the crash image a killed process leaves.
func (s *Store) freeze() { s.log.Freeze() }

// recover reads the snapshot, folds the journal over it, and returns the
// merged state. Corrupt snapshot: start empty. Corrupt journal line
// (including a torn tail): skip. Entries referencing unknown jobs: skip,
// except submissions, which introduce jobs.
func (s *Store) recover() *recoveredState {
	rs := &recoveredState{}
	byID := map[string]*storedJob{}
	var order []string

	var snap snapshotFile
	if s.log.Snapshot(&snap) && snap.Version == storeVersion {
		rs.NextID = snap.NextID
		rs.ETA = snap.ETA
		for _, sj := range snap.Jobs {
			if sj == nil || sj.ID == "" || byID[sj.ID] != nil {
				continue
			}
			byID[sj.ID] = sj
			order = append(order, sj.ID)
		}
	}

	s.log.Replay(func(line []byte) {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil {
			// Corrupt or torn line: skip. A torn line can only be the
			// journal's tail (appends are single writes), so nothing after
			// it is lost.
			rs.Skipped++
			return
		}
		applyEntry(&e, byID, &order, rs)
	})

	for _, id := range order {
		rs.Jobs = append(rs.Jobs, byID[id])
	}
	for _, sj := range rs.Jobs {
		if n := jobNumber(sj.ID); n > rs.NextID {
			rs.NextID = n
		}
	}
	return rs
}

// applyEntry folds one journal entry into the recovery state.
func applyEntry(e *journalEntry, byID map[string]*storedJob, order *[]string, rs *recoveredState) {
	switch {
	case e.Submit != nil && e.Submit.ID != "":
		if byID[e.Submit.ID] != nil {
			return // replayed after a partial compaction: already known
		}
		byID[e.Submit.ID] = e.Submit
		*order = append(*order, e.Submit.ID)
	case e.State != nil:
		sj := byID[e.State.ID]
		if sj == nil {
			rs.Skipped++
			return
		}
		sj.State = e.State.State
		sj.Error = e.State.Error
		at := e.State.At
		switch {
		case e.State.State == StateRunning:
			sj.Started = &at
			// A (re)start invalidates any previously journaled records:
			// the run streams a fresh, bit-identical set.
			sj.Records = nil
		case e.State.State.terminal():
			sj.Finished = &at
		}
	case e.Cell != nil:
		sj := byID[e.Cell.ID]
		if sj == nil || e.Cell.Record == nil || e.Cell.Record.Index < 0 {
			rs.Skipped++
			return
		}
		// Place by index so duplicate replays are idempotent; the stream
		// is in plan order, so the slice only ever grows by one.
		for len(sj.Records) <= e.Cell.Record.Index {
			sj.Records = append(sj.Records, nil)
		}
		sj.Records[e.Cell.Record.Index] = e.Cell.Record
	case e.ETA != nil:
		rs.ETA = e.ETA
	case e.Forget != nil:
		if byID[e.Forget.ID] != nil {
			delete(byID, e.Forget.ID)
			for i, id := range *order {
				if id == e.Forget.ID {
					*order = append((*order)[:i], (*order)[i+1:]...)
					break
				}
			}
		}
	default:
		rs.Skipped++ // unknown entry kind (version skew): skip
	}
}

// jobNumber parses the numeric suffix of "job-N" IDs (0 when foreign).
func jobNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// compact atomically replaces the snapshot with snap and truncates the
// journal. Failures leave the previous snapshot + journal intact — the
// store keeps appending and the next compaction retries.
func (s *Store) compact(snap *snapshotFile) { s.log.Compact(snap) }

// close freezes the store and closes the journal.
func (s *Store) close() { s.log.Close() }

// journalBytes is a test helper view of the journal (what a crash would
// leave on disk at this instant).
func (s *Store) journalBytes() []byte { return s.log.JournalBytes() }
