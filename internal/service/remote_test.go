package service

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"gpusimpow/internal/sweep"
)

// The acceptance contract of the service: running a scenario in-process
// and running it through a daemon produce identical cell records —
// bit-identical metrics, identical order — for the paper's headline
// validation grid (fig6, all three stages) and the new L1×scheduler
// extension. Float64 values survive the JSON hop exactly (encoding/json
// emits the shortest round-trip representation), so reflect.DeepEqual on
// the decoded records is a bitwise comparison.
func TestRemoteEqualsInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig6 grid in -short mode")
	}
	m := NewManager(Options{MaxConcurrent: 2, MaxQueued: 8})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	for _, scenario := range []string{"fig6", "l1sched"} {
		req := sweep.JobRequest{Scenario: scenario}

		plan, err := req.Plan()
		if err != nil {
			t.Fatal(err)
		}
		local, err := plan.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		localRecs := plan.Records(local)

		var remoteRecs []*sweep.CellRecord
		final, err := c.Run(ctx, req, func(r *sweep.CellRecord) error {
			remoteRecs = append(remoteRecs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("%s: job ended %s: %s", scenario, final.State, final.Error)
		}

		if len(remoteRecs) != len(localRecs) {
			t.Fatalf("%s: %d remote records, %d local", scenario, len(remoteRecs), len(localRecs))
		}
		for i := range localRecs {
			if !reflect.DeepEqual(localRecs[i], remoteRecs[i]) {
				t.Errorf("%s: cell %d (%s) diverged between local and remote:\n local  %+v\n remote %+v",
					scenario, i, localRecs[i].CoordString(), localRecs[i], remoteRecs[i])
			}
		}
	}
}

// The reduction layer's acceptance contract: the report a daemon reduces
// server-side from a job's records (GET /v1/jobs/{id}/report) equals the
// in-process reduction of the same request — reflect.DeepEqual after the
// JSON hop, for the paper's headline figure (fig6), the DVFS curve and
// the L1×scheduler extension.
func TestRemoteReportEqualsInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig6 grid in -short mode")
	}
	m := NewManager(Options{MaxConcurrent: 2, MaxQueued: 8})
	defer m.Close()
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	c := &Client{Base: srv.URL, HTTP: srv.Client()}
	ctx := context.Background()

	for _, scenario := range []string{"fig6", "dvfs", "l1sched"} {
		req := sweep.JobRequest{Scenario: scenario}

		want, err := sweep.BuildReport(scenario, nil)
		if err != nil {
			t.Fatal(err)
		}

		final, err := c.Run(ctx, req, func(*sweep.CellRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("%s: job ended %s: %s", scenario, final.State, final.Error)
		}
		got, err := c.Report(ctx, final.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: remote report diverged from in-process reduction:\n got %+v\nwant %+v",
				scenario, got, want)
		}
	}
}
