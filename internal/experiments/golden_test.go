package experiments

// Golden-file contract: one exact oracle per registered scenario. Each
// scenario runs once and pins, byte for byte:
//
//   - testdata/records/<name>.ndjson (sweep-backed scenarios): the
//     CellRecord stream, one json.Encoder line per record, exactly as gpowd
//     streams it;
//   - testdata/reports/<name>.json: the reduced sweep.Report, every Datum
//     at full float64 precision;
//   - testdata/<name>.golden: the rendered text (sweep.RenderText of
//     that report), the bytes `gpowexp run <name>` prints.
//
// TestReplayReports rebuilds every sweep-backed report from its pinned
// records alone, so the reductions (Fig. 6 included) are checked even in
// -short mode, and a report is shown to need nothing but the wire records
// (the contract GET /v1/jobs/{id}/report relies on). Regenerate
// deliberately with
//
//	make golden-update
//
// after an intentional output change (and say so in the commit).

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpusimpow/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite the scenario golden files")

// heavyScenarios are skipped in -short mode (full measurement grids /
// waveform synthesis), matching the package's existing -short policy.
var heavyScenarios = map[string]bool{
	"fig4": true,
	"fig6": true,
}

func TestGoldenReports(t *testing.T) {
	for _, sc := range sweep.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if testing.Short() && heavyScenarios[sc.Name] {
				t.Skip("heavy scenario in -short mode")
			}
			var recs []*sweep.CellRecord
			if sc.Spec != nil {
				recs = runRecords(t, sc.Spec())
				checkGolden(t, recordsPath(sc.Name), encodeRecords(t, recs))
			}
			rep, err := sc.Reduce(recs, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, reportPath(sc.Name), encodeReport(t, rep))
			var buf bytes.Buffer
			if err := sweep.RenderText(&buf, rep); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", sc.Name+".golden"), buf.Bytes())
		})
	}
}

func TestReplayReports(t *testing.T) {
	for _, sc := range sweep.Scenarios() {
		if sc.Spec == nil {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := sc.Reduce(pinnedRecords(t, sc.Name), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(reportPath(sc.Name))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeReport(t, rep); !bytes.Equal(got, want) {
				t.Errorf("%s: report replayed from pinned records diverged from golden\n%s", sc.Name, diffLines(want, got))
			}
		})
	}
}

// TestFig6SubFigures replays the pinned Figure 6 records restricted to one
// GPU — what `gpowexp run fig6 -filter gpu=GT240` reduces — and checks
// each sub-figure renders exactly its half of fig6.golden.
func TestFig6SubFigures(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fig6.golden"))
	if err != nil {
		t.Fatal(err)
	}
	halves := bytes.SplitN(golden, []byte("\n\n"), 2)
	if len(halves) != 2 {
		t.Fatal("fig6.golden has no blank line between its sub-figures")
	}
	want := map[string][]byte{"GT240": append(halves[0], '\n'), "GTX580": halves[1]}
	recs := pinnedRecords(t, "fig6")
	for _, gpu := range []string{"GT240", "GTX580"} {
		var sub []*sweep.CellRecord
		for _, rec := range recs {
			if rec.Coords[0].Axis == "gpu" && rec.Coords[0].Value == gpu {
				sub = append(sub, rec)
			}
		}
		rep, err := reduceFig6(sub, sweep.Filter{"gpu": {gpu}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sweep.RenderText(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want[gpu]) {
			t.Errorf("gpu=%s sub-figure diverged from its half of fig6.golden\n%s", gpu, diffLines(want[gpu], buf.Bytes()))
		}
	}
}

// pinnedRecords decodes a scenario's pinned NDJSON record stream.
func pinnedRecords(t *testing.T, name string) []*sweep.CellRecord {
	t.Helper()
	data, err := os.ReadFile(recordsPath(name))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*sweep.CellRecord
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		rec := new(sweep.CellRecord)
		if err := dec.Decode(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// runRecords plans and runs spec and returns the run's wire records, the
// input every scenario reducer folds.
func runRecords(t *testing.T, spec *sweep.Spec) []*sweep.CellRecord {
	t.Helper()
	plan, err := spec.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Records(rs)
}

func recordsPath(name string) string { return filepath.Join("testdata", "records", name+".ndjson") }
func reportPath(name string) string  { return filepath.Join("testdata", "reports", name+".json") }

// encodeRecords renders records as the NDJSON stream gpowd serves.
func encodeRecords(t *testing.T, recs []*sweep.CellRecord) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// encodeReport renders a report as indented JSON, one datum per line, so
// a golden diff points at the value that moved.
func encodeReport(t *testing.T, rep *sweep.Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden\n%s", path, diffLines(want, got))
	}
}

// diffLines reports the first diverging line, clipped to a window around
// its first diverging byte (NDJSON record lines run to kilobytes) —
// enough to debug a regression without a full diff engine.
func diffLines(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			at := 0
			for at < len(w[i]) && at < len(g[i]) && w[i][at] == g[i][at] {
				at++
			}
			return fmt.Sprintf("line %d, byte %d:\n want %q\n got  %q", i+1, at+1, clip(w[i], at), clip(g[i], at))
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}

// clip returns up to 80 bytes of line on either side of offset at.
func clip(line []byte, at int) []byte {
	lo, hi := max(at-80, 0), min(at+80, len(line))
	return line[lo:hi]
}
