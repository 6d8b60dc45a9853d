package sim_test

// The Activity golden pins every counter the simulator produces — the
// scheduler and scoreboard counts the power model prices included — for the
// whole Table I suite on both validated GPUs, in both clock modes, plus the
// non-default scheduling policies on a few kernels. The core-step golden
// pins, for the same cases, how many core-steps the clock loop took: no
// counter shows a core woken more often than it must be, since the steps a
// sleep skips are credited as if taken. A pure speed change to the
// simulator must leave both files untouched. Regenerate deliberately with
//
//	go test ./internal/sim -run TestActivityGolden -update
//
// after an intentional model change (and say so in the commit).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/activity.golden and testdata/coresteps.golden")

type goldenCase struct {
	name  string
	cfg   *config.GPU
	bench string
}

// goldenCases lists the pinned simulations: every Table I benchmark on
// GT240 and GTX580 under the default round-robin policy, then the GTO and
// two-level policies on four kernels; each in event-driven and dense mode.
func goldenCases() []goldenCase {
	gpus := []func() *config.GPU{config.GT240, config.GTX580}
	var cases []goldenCase
	add := func(mk func() *config.GPU, benchName, policy string) {
		for _, dense := range []bool{false, true} {
			cfg := mk()
			cfg.SchedulerPolicy = policy
			cfg.DenseClock = dense
			clock := "event"
			if dense {
				clock = "dense"
			}
			cases = append(cases, goldenCase{
				name:  fmt.Sprintf("%s/%s/%s/%s", cfg.Name, benchName, policy, clock),
				cfg:   cfg,
				bench: benchName,
			})
		}
	}
	for _, mk := range gpus {
		for _, f := range bench.Suite() {
			add(mk, f.Name, sim.PolicyRR)
		}
	}
	for _, mk := range gpus {
		for _, policy := range []string{sim.PolicyGTO, sim.PolicyTwoLevel} {
			for _, name := range []string{"vectorAdd", "BlackScholes", "bfs", "mergeSort"} {
				add(mk, name, policy)
			}
		}
	}
	return cases
}

// TestActivityGolden compares every launch's full Activity against
// testdata/activity.golden with reflect.DeepEqual: no counter may move. It
// also checks the conservation invariants on every launch, so a golden
// regenerated with -update still has to obey them, and compares each case's
// core-steps with testdata/coresteps.golden.
func TestActivityGolden(t *testing.T) {
	path := filepath.Join("testdata", "activity.golden")
	stepsPath := filepath.Join("testdata", "coresteps.golden")
	var want map[string]sim.Activity
	var wantSteps map[string]uint64
	if !*updateGolden {
		var err error
		if want, err = readActivityGolden(path); err != nil {
			t.Fatalf("reading golden (run with -update to create): %v", err)
		}
		if wantSteps, err = readCoreStepsGolden(stepsPath); err != nil {
			t.Fatalf("reading core-step golden (run with -update to create): %v", err)
		}
	}

	var out, stepsOut bytes.Buffer
	seen := map[string]bool{}
	for _, tc := range goldenCases() {
		g, err := sim.New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		o, err := simulate(g, nil, tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		if steps := g.CoreSteps(); *updateGolden {
			fmt.Fprintf(&stepsOut, "%s %d\n", tc.name, steps)
		} else if w, ok := wantSteps[tc.name]; !ok {
			t.Errorf("%s: case missing from the core-step golden", tc.name)
		} else if steps != w {
			t.Errorf("%s: %d core-steps, want %d", tc.name, steps, w)
		}
		for i, r := range o.res {
			key := tc.name + "#" + strconv.Itoa(i)
			seen[key] = true
			for _, msg := range conservationViolations(tc.cfg, r.Activity) {
				t.Errorf("%s: %s", key, msg)
			}
			if *updateGolden {
				line, err := json.Marshal(r.Activity)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s %s\n", key, line)
				continue
			}
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: launch missing from the golden", key)
				continue
			}
			if !reflect.DeepEqual(r.Activity, w) {
				t.Errorf("%s: activity diverged from the golden:\n%s", key, activityDiff(w, r.Activity))
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepsPath, stepsOut.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("%s: golden launch no longer simulated", key)
		}
	}
	for _, tc := range goldenCases() {
		delete(wantSteps, tc.name)
	}
	for name := range wantSteps {
		t.Errorf("%s: golden case no longer simulated", name)
	}
}

// conservationViolations checks the relations every Activity must satisfy
// whatever the kernel, and describes each one that fails. Together they
// bound the counters an event-driven clock credits in bulk: no busy or
// scheduler counter may exceed what one step per elapsed cycle produces.
func conservationViolations(cfg *config.GPU, a sim.Activity) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	var busy uint64
	for i, b := range a.CoreBusyCycles {
		busy += b
		check(b <= a.Cycles, "CoreBusyCycles[%d] = %d exceeds Cycles = %d", i, b, a.Cycles)
	}
	for i, b := range a.ClusterBusyCycles {
		check(b <= a.Cycles, "ClusterBusyCycles[%d] = %d exceeds Cycles = %d", i, b, a.Cycles)
	}
	check(a.GlobalSchedCycles <= a.Cycles, "GlobalSchedCycles = %d exceeds Cycles = %d", a.GlobalSchedCycles, a.Cycles)
	classes := a.IntWarpInstrs + a.FPWarpInstrs + a.SFUWarpInstrs + a.MemWarpInstrs + a.CtrlWarpInstrs
	check(a.IssuedInstrs == classes, "IssuedInstrs = %d, but the per-class warp instructions sum to %d", a.IssuedInstrs, classes)
	check(a.ICacheReads == a.IssuedInstrs, "ICacheReads = %d != IssuedInstrs = %d", a.ICacheReads, a.IssuedInstrs)
	check(a.SchedArbs <= uint64(cfg.Schedulers)*busy, "SchedArbs = %d exceeds %d schedulers x %d busy core-cycles", a.SchedArbs, cfg.Schedulers, busy)
	check(a.SBSearches >= a.IssuedInstrs, "SBSearches = %d below IssuedInstrs = %d", a.SBSearches, a.IssuedInstrs)
	check(a.ResidentWarpCycles <= uint64(cfg.MaxWarpsPerCore)*busy,
		"ResidentWarpCycles = %d exceeds %d warps x %d busy core-cycles", a.ResidentWarpCycles, cfg.MaxWarpsPerCore, busy)
	check(a.L1Misses <= a.L1Reads, "L1Misses = %d exceeds L1Reads = %d", a.L1Misses, a.L1Reads)
	check(a.ConstMisses <= a.ConstReads, "ConstMisses = %d exceeds ConstReads = %d", a.ConstMisses, a.ConstReads)
	return out
}

// readActivityGolden parses "<case>#<launch> <json Activity>" lines.
func readActivityGolden(path string) (map[string]sim.Activity, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]sim.Activity{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, body, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, fmt.Errorf("malformed line %q", sc.Text())
		}
		var a sim.Activity
		if err := json.Unmarshal([]byte(body), &a); err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		m[key] = a
	}
	return m, sc.Err()
}

// readCoreStepsGolden parses "<case> <core-steps>" lines.
func readCoreStepsGolden(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, n, ok := strings.Cut(line, " ")
		steps, err := strconv.ParseUint(n, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("malformed line %q", line)
		}
		m[name] = steps
	}
	return m, nil
}

// activityDiff lists the counters that differ, one per line.
func activityDiff(want, got sim.Activity) string {
	var b strings.Builder
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if w, g := wv.Field(i).Interface(), gv.Field(i).Interface(); !reflect.DeepEqual(w, g) {
			fmt.Fprintf(&b, "  %s: want %v, got %v\n", wv.Type().Field(i).Name, w, g)
		}
	}
	return b.String()
}
