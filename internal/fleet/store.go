package fleet

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"

	"gpusimpow/internal/journal"
	"gpusimpow/internal/service"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// The router's durable routing table, on the same journal+snapshot
// substrate as the daemons' job store (internal/journal): one line per
// assignment, re-dispatch, forget or drain flip, compacted into a
// snapshot at shutdown. A restarted router recovers every fleet
// job→backend assignment its backends still hold and every operator drain
// bit, so riding clients resume their streams against the same fleet job
// IDs and a mid-rollout drain survives the rollout of the router itself.

// fleetStoreVersion guards the persisted shape; bump on change.
const fleetStoreVersion = 1

// storedAssignment is one fleet job's persisted routing state.
type storedAssignment struct {
	// ID is the fleet-assigned job ID clients see ("job-N" in router
	// numbering — a namespace distinct from any backend's own IDs).
	ID      string           `json:"id"`
	Request sweep.JobRequest `json:"request"`
	// RoutingKey is the plan's dominant timing-group key (memoized so
	// recovery and re-dispatch never re-plan).
	RoutingKey string `json:"routingKey"`
	// Key is the router-generated Idempotency-Key every dispatch of this
	// job carries — what makes a raced or repeated re-dispatch collapse to
	// one backend job.
	Key string `json:"idempotencyKey"`
	// ClientKey is the submitting client's own Idempotency-Key ("" when
	// none), so a client retrying a submit whose response was lost gets
	// this fleet job back instead of a duplicate.
	ClientKey string `json:"clientKey,omitempty"`
	// Backend is the owning backend's name; BackendID the job's ID there.
	Backend   string `json:"backend"`
	BackendID string `json:"backendID"`
}

// drainEntry journals an operator drain flip.
type drainEntry struct {
	Backend string `json:"backend"`
	Drained bool   `json:"drained"`
}

// fleetEntry is one journal line; exactly one field is set.
type fleetEntry struct {
	Assign *storedAssignment `json:"assign,omitempty"`
	// Reassign re-homes an existing fleet job (failover); only the
	// backend coordinates change.
	Reassign *storedAssignment `json:"reassign,omitempty"`
	Drain    *drainEntry       `json:"drain,omitempty"`
	// Forget drops the fleet job with this ID: its backend answered 410,
	// it pruned the job.
	Forget string `json:"forget,omitempty"`
}

// fleetSnapshot is the compacted on-disk state.
type fleetSnapshot struct {
	Version int `json:"version"`
	// NextID is the highest fleet job number ever assigned, so a restarted
	// router never reuses a forgotten job's ID.
	NextID      int                 `json:"nextID"`
	Assignments []*storedAssignment `json:"assignments,omitempty"` // creation order
	Drained     []string            `json:"drained,omitempty"`     // operator-drained backends
}

// fleetRecovered is what recovery hands the router.
type fleetRecovered struct {
	Assignments []*storedAssignment // creation order
	NextID      int
	Drained     map[string]bool
	Skipped     int
}

// fleetStore wraps one journal.Log with the fleet entry fold.
type fleetStore struct {
	log *journal.Log
}

// openFleetStore opens the routing table under stateDir, in a generation
// directory keyed by the router binary's fingerprint — routing state
// written by an incompatible build is ignored, exactly like the daemons'
// job stores (a fleet job assigned by an old build would reference
// backend jobs the new build's backends cannot reproduce).
func openFleetStore(stateDir string) (*fleetStore, error) {
	dir := filepath.Join(stateDir, fmt.Sprintf("fleet-v%d-%s", fleetStoreVersion, simcache.Fingerprint()))
	l, err := journal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &fleetStore{log: l}, nil
}

func (s *fleetStore) append(e fleetEntry) { s.log.Append(e) }
func (s *fleetStore) close()              { s.log.Close() }

// compact folds the live state into a fresh snapshot.
func (s *fleetStore) compact(snap *fleetSnapshot) {
	snap.Version = fleetStoreVersion
	s.log.Compact(snap)
}

// recover reads the snapshot and folds the journal over it (foldFleet).
// A missing or corrupt snapshot starts empty.
func (s *fleetStore) recover() *fleetRecovered {
	var snap fleetSnapshot
	if !s.log.Snapshot(&snap) {
		snap = fleetSnapshot{} // a corrupt file may have decoded in part
	}
	return foldFleet(snap, s.log.Replay)
}

// foldFleet folds the journal lines replay hands over onto snap and
// returns the routing table they leave. A snapshot of another version
// (the zero value included) starts empty. A corrupt line, or a re-dispatch
// of a job it does not know, is skipped. Every assignment counts toward
// NextID, a forgotten one too. It reads no files, so it can be fuzzed in
// memory.
func foldFleet(snap fleetSnapshot, replay func(fn func(line []byte)) int) *fleetRecovered {
	rs := &fleetRecovered{Drained: map[string]bool{}}
	byID := map[string]*storedAssignment{}
	var order []string

	if snap.Version == fleetStoreVersion {
		rs.NextID = snap.NextID
		for _, a := range snap.Assignments {
			if a == nil || a.ID == "" || byID[a.ID] != nil {
				continue
			}
			rs.NextID = max(rs.NextID, service.JobNumber(a.ID))
			byID[a.ID] = a
			order = append(order, a.ID)
		}
		for _, name := range snap.Drained {
			rs.Drained[name] = true
		}
	}

	replay(func(line []byte) {
		var e fleetEntry
		if json.Unmarshal(line, &e) != nil {
			rs.Skipped++
			return
		}
		switch {
		case e.Assign != nil && e.Assign.ID != "":
			rs.NextID = max(rs.NextID, service.JobNumber(e.Assign.ID))
			if byID[e.Assign.ID] != nil {
				return // replayed over a partial compaction
			}
			byID[e.Assign.ID] = e.Assign
			order = append(order, e.Assign.ID)
		case e.Reassign != nil && e.Reassign.ID != "":
			a := byID[e.Reassign.ID]
			if a == nil {
				rs.Skipped++
				return
			}
			a.Backend = e.Reassign.Backend
			a.BackendID = e.Reassign.BackendID
		case e.Drain != nil:
			if e.Drain.Drained {
				rs.Drained[e.Drain.Backend] = true
			} else {
				delete(rs.Drained, e.Drain.Backend)
			}
		case e.Forget != "":
			if byID[e.Forget] != nil {
				delete(byID, e.Forget)
				order = slices.DeleteFunc(order, func(id string) bool { return id == e.Forget })
			}
		default:
			rs.Skipped++
		}
	})

	for _, id := range order {
		rs.Assignments = append(rs.Assignments, byID[id])
	}
	return rs
}
