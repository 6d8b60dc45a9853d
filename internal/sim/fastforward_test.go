package sim_test

// Equivalence tests for the event-driven fast-forward clock loop: skipping
// quiescent cycles must be bit-identical to the dense tick-every-cycle loop
// in every activity counter, in the headline results derived from them, and
// in the functional global-memory image.

import (
	"fmt"
	"reflect"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
)

// runSuiteMode executes every launch of the named benchmark on cfg and
// returns the per-launch results plus the final global-memory words.
func runSuiteMode(t *testing.T, cfg *config.GPU, benchName string) ([]*sim.Result, []uint32) {
	t.Helper()
	results, words, err := simulateSuite(cfg, benchName)
	if err != nil {
		t.Fatal(err)
	}
	return results, words
}

// simulateSuite is runSuiteMode without a *testing.T, so it can run on
// goroutines other than the test's own.
func simulateSuite(cfg *config.GPU, benchName string) ([]*sim.Result, []uint32, error) {
	g, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return simulateOn(g, benchName)
}

// simulateOn is simulateSuite on a given simulator instance.
func simulateOn(g *sim.GPU, benchName string) ([]*sim.Result, []uint32, error) {
	f, err := bench.ByName(benchName)
	if err != nil {
		return nil, nil, err
	}
	inst, err := f.Make()
	if err != nil {
		return nil, nil, err
	}
	var results []*sim.Result
	for _, r := range inst.Runs {
		res, err := g.Run(r.Launch, inst.Mem, r.CMem)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s: %v", benchName, r.Name, err)
		}
		results = append(results, res)
	}
	if err := inst.Verify(); err != nil {
		return nil, nil, fmt.Errorf("%s failed functional verification: %v", benchName, err)
	}
	words := make([]uint32, inst.Mem.Size()/4)
	for i := range words {
		words[i] = inst.Mem.Read32(uint32(4 * i))
	}
	return results, words, nil
}

func TestFastForwardEquivalence(t *testing.T) {
	cases := []struct {
		gpu    func() *config.GPU
		policy string
		bench  string
	}{
		{config.GT240, "", "vectorAdd"},
		{config.GT240, "", "BlackScholes"},
		{config.GT240, "", "bfs"},
		{config.GTX580, "", "vectorAdd"},
		{config.GTX580, "", "BlackScholes"},
		{config.GTX580, "", "bfs"},
		// Non-default scheduling policies exercise different candidate
		// orderings and arbitration counts during stalls.
		{config.GTX580, sim.PolicyGTO, "vectorAdd"},
		{config.GTX580, sim.PolicyTwoLevel, "vectorAdd"},
	}
	for _, tc := range cases {
		fast := tc.gpu()
		fast.SchedulerPolicy = tc.policy
		dense := tc.gpu()
		dense.SchedulerPolicy = tc.policy
		dense.DenseClock = true

		name := fast.Name + "/" + tc.bench
		if tc.policy != "" {
			name += "/" + tc.policy
		}
		t.Run(name, func(t *testing.T) {
			fastRes, fastMem := runSuiteMode(t, fast, tc.bench)
			denseRes, denseMem := runSuiteMode(t, dense, tc.bench)

			if len(fastRes) != len(denseRes) {
				t.Fatalf("launch counts differ: %d vs %d", len(fastRes), len(denseRes))
			}
			for i := range fastRes {
				if !reflect.DeepEqual(fastRes[i].Activity, denseRes[i].Activity) {
					t.Errorf("launch %d: activity counters diverge:\nfast:  %+v\ndense: %+v",
						i, fastRes[i].Activity, denseRes[i].Activity)
				} else if !reflect.DeepEqual(fastRes[i], denseRes[i]) {
					// Activity matched but a derived headline number didn't.
					t.Errorf("launch %d: derived results diverge:\nfast:  %+v\ndense: %+v",
						i, fastRes[i], denseRes[i])
				}
			}
			if !reflect.DeepEqual(fastMem, denseMem) {
				t.Error("global memory images diverge between fast-forward and dense mode")
			}
		})
	}
}

// TestFastForwardSkips guards the optimization itself (the equivalence test
// above would pass with skipping disabled): the dense loop steps every busy
// core every cycle, so its core-steps equal the summed CoreBusyCycles, while
// the event-driven loop must step a core in at most half of its busy
// cycles on a memory-bound kernel.
func TestFastForwardSkips(t *testing.T) {
	cases := []struct {
		gpu   func() *config.GPU
		bench string
	}{
		{config.GT240, "vectorAdd"},
		{config.GTX580, "bfs"},
	}
	for _, tc := range cases {
		for _, dense := range []bool{false, true} {
			cfg := tc.gpu()
			cfg.DenseClock = dense
			t.Run(fmt.Sprintf("%s/%s/dense=%v", cfg.Name, tc.bench, dense), func(t *testing.T) {
				g, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				results, _, err := simulateOn(g, tc.bench)
				if err != nil {
					t.Fatal(err)
				}
				var busy uint64
				for _, r := range results {
					for _, b := range r.Activity.CoreBusyCycles {
						busy += b
					}
				}
				steps := g.CoreSteps()
				t.Logf("%d core-steps for %d busy core-cycles", steps, busy)
				switch {
				case busy == 0:
					t.Fatal("degenerate run: no busy core-cycles")
				case dense && steps != busy:
					t.Errorf("dense clock took %d core-steps, want one per busy core-cycle (%d)", steps, busy)
				case !dense && 2*steps > busy:
					t.Errorf("event-driven clock took %d core-steps for %d busy core-cycles, want at most half", steps, busy)
				}
			})
		}
	}
}
