package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpusimpow/internal/sweep"
)

// The heavyweight artifacts (fig4, fig6) are covered by the experiments
// package tests and TestAllMatchesGoldens; here the lighter commands run
// end to end through the CLI dispatcher.
func TestDispatchLightCommands(t *testing.T) {
	for _, cmd := range []string{"table2", "table4", "table5", "staticextrap"} {
		if err := dispatch("", cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestDispatchFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform synthesis in -short mode")
	}
	if err := dispatch("", "fig4"); err != nil {
		t.Fatal(err)
	}
}

// `gpowexp all` prints the nine paper artifacts' text goldens, joined by
// blank lines.
func TestAllMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 and fig6 in -short mode")
	}
	var want []byte
	for i, name := range []string{"table2", "table4", "table5", "fig4", "fig6",
		"energyperop", "staticextrap", "dvfs", "ablation"} {
		if i > 0 {
			want = append(want, '\n')
		}
		b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	got := captureStdout(t, func() error { return dispatch("", "all") })
	if !bytes.Equal(got, want) {
		t.Errorf("`gpowexp all` diverged from the scenario goldens:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	orig := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = orig
	w.Close()
	b := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch("", "nonsense"); err == nil {
		t.Error("unknown command should error")
	}
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := list(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig6", "dvfs", "ablation-processnode", "axis gpu:", "axis scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunWithFilter(t *testing.T) {
	// A filtered DVFS run exercises run + repeatable -filter + -stats end
	// to end on a cheap sweep.
	if err := dispatch("", "run", "dvfs", "-filter", "scale=0.5,1.0", "-stats"); err != nil {
		t.Fatal(err)
	}
	if err := dispatch("", "run", "dvfs", "-filter", "scale=0.5", "-v"); err != nil {
		t.Fatal(err)
	}
	sweep.SetProgress(nil)
}

func TestRunJSONRecords(t *testing.T) {
	// -json swaps the scenario's formatted report for NDJSON cell records
	// — the same records a gpowd daemon streams (make ci diffs them).
	if err := dispatch("", "run", "dvfs", "-filter", "scale=0.5", "-json"); err != nil {
		t.Fatal(err)
	}
	// Non-sweep scenarios have no records to emit.
	if err := dispatch("", "run", "table2", "-json"); err == nil {
		t.Error("-json on a non-sweep scenario should error")
	}
}

func TestRunReportModes(t *testing.T) {
	// -report renders the reduced report (same bytes as the default local
	// rendering); -report-json emits the typed sweep.Report as JSON — the
	// same value a daemon serves from /v1/jobs/{id}/report (make ci's
	// service smoke diffs them).
	if err := dispatch("", "run", "dvfs", "-filter", "scale=0.5", "-report"); err != nil {
		t.Fatal(err)
	}
	if err := dispatch("", "run", "dvfs", "-filter", "scale=0.5", "-report-json"); err != nil {
		t.Fatal(err)
	}
	// Table-style scenarios reduce too (from scratch; no records).
	if err := dispatch("", "run", "table2", "-report-json"); err != nil {
		t.Fatal(err)
	}
	// The output modes are mutually exclusive.
	if err := dispatch("", "run", "dvfs", "-json", "-report-json"); err == nil {
		t.Error("-json with -report-json should error")
	}
	if err := dispatch("", "run", "dvfs", "-report", "-report-json"); err == nil {
		t.Error("-report with -report-json should error")
	}
}

func TestLocalReportJSONMatchesReduction(t *testing.T) {
	var buf bytes.Buffer
	if err := runLocalReportJSON(&buf, "ablation-processnode", nil); err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.BuildReport("ablation-processnode", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&rep, want) {
		t.Errorf("emitted report JSON diverges from the in-process reduction")
	}
	// The rendered form of the same report is the scenario's exact text
	// output.
	var text, direct bytes.Buffer
	if err := sweep.RenderText(&text, &rep); err != nil {
		t.Fatal(err)
	}
	if err := sweep.RunScenario(&direct, "ablation-processnode", nil); err != nil {
		t.Fatal(err)
	}
	if text.String() != direct.String() {
		t.Errorf("JSON-round-tripped report renders differently:\n got %q\nwant %q", text.String(), direct.String())
	}
}

func TestRemoteFlagErrors(t *testing.T) {
	// These fail before any network dial: `all` mixes in-process-only
	// artifacts, and -stats reads the local cache.
	if err := dispatch("http://127.0.0.1:1", "all"); err == nil {
		t.Error("remote `all` should error")
	}
	if err := dispatch("http://127.0.0.1:1", "run", "dvfs", "-stats"); err == nil {
		t.Error("remote -stats should error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := dispatch("", "run"); err == nil {
		t.Error("run with no scenario should error")
	}
	if err := dispatch("", "run", "dvfs", "-filter", "scale=2.0"); err == nil {
		t.Error("unknown filter value should error")
	}
	if err := dispatch("", "run", "table2", "-filter", "gpu=GT240"); err == nil {
		t.Error("filtering a non-sweep scenario should error")
	}
	if err := dispatch("", "run", "dvfs", "-filter", "garbage"); err == nil {
		t.Error("malformed filter should error")
	}
	// Scenario-specific filter constraints (Scenario.CheckFilter) fail
	// fast — before any simulation — in every output mode.
	if err := dispatch("", "run", "fig6", "-filter", "bench=bfs"); err == nil {
		t.Error("bench-filtered fig6 should error before simulating")
	}
	if err := dispatch("", "run", "fig6", "-filter", "bench=bfs", "-report-json"); err == nil {
		t.Error("bench-filtered fig6 -report-json should error before simulating")
	}
	if err := dispatch("", "run", "energyperop", "-filter", "lanes=31"); err == nil {
		t.Error("filtered energyperop should error before simulating")
	}
}
