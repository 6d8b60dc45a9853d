package fleet

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"gpusimpow/internal/service"
	"gpusimpow/internal/sweep"
)

// fleetImage is a routing table the write path could leave: a snapshot
// holding two assignments and a drain, and a journal after it that
// assigns, re-dispatches, forgets and flips drains. Its newest assignment
// is forgotten, so only a fold that counts every assignment's ID recovers
// NextID 4.
func fleetImage(tb testing.TB) (snapshot, journal []byte) {
	assign := func(n int, backend string) *storedAssignment {
		return &storedAssignment{
			ID:         service.JobID(n),
			Request:    sweep.JobRequest{Scenario: testScenario, Filter: sweep.Filter{"gpu": {"GT240"}}},
			RoutingKey: "key",
			Key:        "fleet-key",
			Backend:    backend,
			BackendID:  service.JobID(n),
		}
	}
	snapshot, err := json.Marshal(fleetSnapshot{
		Version:     fleetStoreVersion,
		NextID:      2,
		Assignments: []*storedAssignment{assign(1, "b0"), assign(2, "b0")},
		Drained:     []string{"b1"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	moved := assign(1, "b1")
	moved.BackendID = "job-9"
	for _, e := range []fleetEntry{
		{Assign: assign(3, "b0")},
		{Reassign: moved},
		{Forget: "job-2"},
		{Drain: &drainEntry{Backend: "b1", Drained: false}},
		{Assign: assign(4, "b1")},
		{Forget: "job-4"},
	} {
		line, err := json.Marshal(e)
		if err != nil {
			tb.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	return snapshot, journal
}

// foldBytes is fleetStore.recover over a snapshot file holding snap and a
// journal file holding journal.
func foldBytes(snap, journal []byte) *fleetRecovered {
	replay := func(fn func(line []byte)) int {
		n := 0
		for line := range bytes.Lines(journal) {
			fn(line)
			n++
		}
		return n
	}
	var sf fleetSnapshot
	if json.Unmarshal(snap, &sf) != nil {
		sf = fleetSnapshot{}
	}
	return foldFleet(sf, replay)
}

// The fold of fleetImage: the snapshot's table with the journal's
// assignment, re-dispatch, forgets and undrain applied, and NextID past
// the forgotten newest assignment.
func TestFoldFleet(t *testing.T) {
	rs := foldBytes(fleetImage(t))
	var got []string
	for _, a := range rs.Assignments {
		got = append(got, a.ID+"@"+a.Backend+"/"+a.BackendID)
	}
	if want := []string{"job-1@b1/job-9", "job-3@b0/job-3"}; !slices.Equal(got, want) {
		t.Errorf("recovered assignments %v, want %v", got, want)
	}
	if rs.NextID != 4 {
		t.Errorf("NextID %d, want 4: a forgotten ID must never be issued again", rs.NextID)
	}
	if len(rs.Drained) != 0 || rs.Skipped != 0 {
		t.Errorf("drained %v, skipped %d; want none of either", rs.Drained, rs.Skipped)
	}
}

// writePathOrder reports whether journal could have come from the
// router's write path over a snapshot holding the known jobs: no job is
// assigned twice or after its forget, and every re-dispatch and forget
// follows its job's assignment and precedes its forget.
func writePathOrder(journal []byte, known map[string]bool) bool {
	gone := map[string]bool{}
	for line := range bytes.Lines(journal) {
		var e fleetEntry
		if json.Unmarshal(line, &e) != nil {
			continue // skipped by every replay alike
		}
		switch { // foldFleet's case order
		case e.Assign != nil && e.Assign.ID != "":
			if known[e.Assign.ID] || gone[e.Assign.ID] {
				return false
			}
			known[e.Assign.ID] = true
		case e.Reassign != nil && e.Reassign.ID != "":
			if !known[e.Reassign.ID] {
				return false
			}
		case e.Drain != nil:
		case e.Forget != "":
			if !known[e.Forget] {
				return false
			}
			delete(known, e.Forget)
			gone[e.Forget] = true
		}
	}
	return true
}

// FuzzFleetRecover feeds the routing table's fold arbitrary snapshot and
// journal bytes, in memory. The fold must never panic, must recover each
// fleet job at most once, and must leave NextID at or above every
// assignment the journal holds, forgotten ones included, so no ID is
// issued twice. Where the journal is one the write path could have
// produced, replaying it over the snapshot it folds to must change
// nothing: that is the crash window between the snapshot rename and the
// journal truncate, which replays the journal twice.
func FuzzFleetRecover(f *testing.F) {
	snap, journal := fleetImage(f)
	f.Add(snap, journal)
	f.Add([]byte(nil), journal)
	f.Add(snap, []byte(nil))
	folded := func(t *testing.T, rs *fleetRecovered) []byte {
		var drained []string
		for name := range rs.Drained {
			drained = append(drained, name)
		}
		slices.Sort(drained)
		b, err := json.Marshal(fleetSnapshot{Version: fleetStoreVersion, NextID: rs.NextID, Assignments: rs.Assignments, Drained: drained})
		if err != nil {
			t.Skip("state not representable as JSON:", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		once := foldBytes(snap, journal)
		ids := map[string]bool{}
		for _, a := range once.Assignments {
			if ids[a.ID] {
				t.Errorf("fleet job %s recovered twice", a.ID)
			}
			ids[a.ID] = true
		}
		for line := range bytes.Lines(journal) {
			var e fleetEntry
			if json.Unmarshal(line, &e) == nil && e.Assign != nil && service.JobNumber(e.Assign.ID) > once.NextID {
				t.Errorf("NextID %d is below the journaled assignment %s", once.NextID, e.Assign.ID)
			}
		}

		known := map[string]bool{}
		for _, a := range foldBytes(snap, nil).Assignments {
			known[a.ID] = true
		}
		if !writePathOrder(journal, known) {
			return
		}
		want := folded(t, once)
		if got := folded(t, foldBytes(want, journal)); !bytes.Equal(got, want) {
			t.Errorf("replaying the journal over its own fold changed the state:\nonce:  %s\ntwice: %s", want, got)
		}
	})
}
