package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from this run")

// benchmarkJSON is the part of ../BENCHMARK.json the program must honor.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for a short time (sweep-warm traced, the
// rest untraced) and checks that verification passes, no op fails, and
// every metric BENCHMARK.json declares is reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declNames []string
	for _, w := range decl.Workloads {
		declNames = append(declNames, w.Name)
	}
	if !reflect.DeepEqual(names, declNames) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declNames)
	}

	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+"/", "gpusimpow/cmd/gpowd", "gpusimpow/cmd/gpowfleet").CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}

	observed := expectations{Scenarios: map[string]string{}, Fig6ErrPct: map[string]float64{}}
	for _, w := range workloads {
		opts := options{workload: w.name, seed: 1, seconds: 1, trace: w.name == "sweep-warm", bin: bin, workdir: t.TempDir()}
		opts.spans = opts.workdir + "/spans.json"
		r := newRunCtx(opts)
		start := time.Now()
		res, err := r.execute(&w)
		t.Logf("%s: %.1fs", w.name, time.Since(start).Seconds())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !*update && (!res.Correct || res.Failed > 0) {
			t.Errorf("%s: correct=%v failed=%d/%d: %v", w.name, res.Correct, res.Failed, res.Attempted, r.problems)
		}
		e2e, err := newResult(endToEnd, r.endToEndValues(), res.Attempted, res.Failed, res.Correct)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkDeclared(t, w.name, e2e, decl.EndToEnd)
		if opts.trace {
			checkDeclared(t, w.name, res, decl.PerLayer)
			if _, err := os.Stat(opts.spans); err != nil {
				t.Errorf("%s: no span file: %v", w.name, err)
			}
		}
		if r.observed.SimSuite.Launches > 0 {
			observed.SimSuite = r.observed.SimSuite
		}
		for k, v := range r.observed.Scenarios {
			observed.Scenarios[k] = v
		}
		for k, v := range r.observed.Fig6ErrPct {
			observed.Fig6ErrPct[k] = v
		}
	}
	if *update {
		out, err := json.MarshalIndent(observed, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/expected.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkDeclared checks that res reports exactly the declared metrics, each
// with its declared unit.
func checkDeclared(t *testing.T, workload string, res *result, decl []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(decl) {
		t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", workload, len(res.Metrics), len(decl))
	}
	for _, d := range decl {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
}
