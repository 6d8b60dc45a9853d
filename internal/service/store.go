package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gpusimpow/internal/journal"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// The durable job store: an append-only NDJSON journal plus a compacted
// snapshot under gpowd's -state-dir, so a daemon crash or restart loses
// no job state. It keeps only what the request cannot determine: the
// request, the lifecycle and the ETA model's EWMA. Records are a
// deterministic function of the build and the request, so a terminal job
// keeps just its stream's length and recordDigest, re-derives its records
// on first use after recovery and publishes them only if they hash to
// that digest: every recovery checks the determinism contract. Queued
// jobs re-enqueue in submit order; jobs running when the process died
// come back "interrupted" and re-execute. The generation directory is
// keyed by the build fingerprint, so the re-deriving build is the one
// that digested.
//
// The I/O discipline (generation directory, torn-tail-tolerant journal,
// atomic snapshot + truncate, no fsync by design) lives in
// internal/journal, shared with the fleet router's routing table; this
// file owns the job-shaped entry types and the idempotent fold.
//
// Write path: one journal line per submission, state transition (a
// terminal one carries the count and digest) and forget. Compaction (at
// recovery, on prune evictions, and at shutdown) folds everything into
// snapshot.json and truncates the journal, which both bounds disk under
// -retain/-retain-age and clears any torn tail so later appends cannot
// concatenate onto it.
//
// Crash windows: a process killed mid-job leaves the job's submission and
// running transition, so it re-executes. The snapshot is renamed before
// the journal is truncated, so a crash between the two leaves journal
// entries that are already folded into the snapshot.
// Replaying them is idempotent by construction — submissions of a known
// job are skipped, state entries overwrite — except that a job forgotten
// by the snapshot may be resurrected by its surviving journal entries;
// that is benign (the next prune forgets it again) and strictly better
// than the reverse order, which could lose jobs.

// storeVersion guards the persisted shape; bump on incompatible change.
const storeVersion = 2

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
	// Count and Digest describe a terminal job's record stream: its length
	// and recordDigest. Recovery re-derives the records from the request.
	Count  int    `json:"count,omitempty"`
	Digest string `json:"digest,omitempty"`
}

// recordDigest is the hex sha256 of records exactly as /cells streams
// them: one json.Encoder line per record.
func recordDigest(recs []*sweep.CellRecord) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		_ = enc.Encode(r) // a hash.Hash write never fails
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateEntry journals one lifecycle transition; a terminal one carries
// the job's record count and digest.
type stateEntry struct {
	ID     string    `json:"id"`
	State  JobState  `json:"state"`
	Error  string    `json:"error,omitempty"`
	At     time.Time `json:"at"`
	Count  int       `json:"count,omitempty"`
	Digest string    `json:"digest,omitempty"`
}

// etaEntry is the shared ETA model's calibration, as the snapshot keeps it.
type etaEntry struct {
	SecPerCell float64 `json:"secPerCell"`
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

// recoveredState is what recoverStore hands the Manager.
type recoveredState struct {
	Jobs    []*storedJob // creation order
	NextID  int
	ETA     *etaEntry
	Skipped int // corrupt/unusable journal lines skipped
}

// openStore opens (creating if needed) the store's journal and snapshot
// under stateDir. State lives under a generation directory
// (<state-dir>/v<version>-<build fingerprint>/, mirroring
// internal/simcache/disk.go) so a directory shared across simulator
// versions never replays state an incompatible binary wrote.
func openStore(stateDir string) (*journal.Log, error) {
	return journal.Open(filepath.Join(stateDir, fmt.Sprintf("v%d-%s", storeVersion, simcache.Fingerprint())))
}

// recoverStore reads the snapshot and folds the journal over it
// (foldStore). A missing or corrupt snapshot starts empty.
func recoverStore(l *journal.Log) *recoveredState {
	var snap snapshotFile
	if !l.Snapshot(&snap) {
		snap = snapshotFile{} // a corrupt file may have decoded in part
	}
	return foldStore(snap, l.Replay)
}

// foldStore folds the journal lines replay hands over onto snap and
// returns the merged state. A snapshot of another version (the zero value
// included) starts empty. Corrupt journal line (including a torn tail):
// skip. Entries referencing unknown jobs: skip, except submissions, which
// introduce jobs. It reads no files, so it can be fuzzed in memory.
func foldStore(snap snapshotFile, replay func(fn func(line []byte)) int) *recoveredState {
	rs := &recoveredState{}
	byID := map[string]*storedJob{}
	var order []string

	if snap.Version == storeVersion {
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

	replay(func(line []byte) {
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
		sj.Count, sj.Digest = e.State.Count, e.State.Digest
		at := e.State.At
		switch {
		case e.State.State == StateRunning:
			sj.Started = &at
		case e.State.State.terminal():
			sj.Finished = &at
		}
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
