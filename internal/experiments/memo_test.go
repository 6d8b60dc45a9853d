package experiments

import (
	"bytes"
	"os"
	"testing"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// TestMeasureMemoDeterminism runs fig6 (a card session per cell) and
// energyperop (one shared card) twice in one process after a cache Reset:
// pass 1 simulates and measures everything cold, pass 2 takes every
// measurement from the memo. Both record streams must equal the pinned
// records byte for byte.
func TestMeasureMemoDeterminism(t *testing.T) {
	for _, name := range []string{"fig6", "energyperop"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && heavyScenarios[name] {
				t.Skip("heavy scenario in -short mode")
			}
			sc, ok := sweep.Lookup(name)
			if !ok {
				t.Fatalf("scenario %s not registered", name)
			}
			pinned, err := os.ReadFile(recordsPath(name))
			if err != nil {
				t.Fatal(err)
			}
			simcache.Default().Reset()
			for pass := 1; pass <= 2; pass++ {
				plan, err := sc.Spec().Plan(nil)
				if err != nil {
					t.Fatal(err)
				}
				before := simcache.Default().Stats()
				rs, err := plan.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				after := simcache.Default().Stats()
				if got := encodeRecords(t, plan.Records(rs)); !bytes.Equal(got, pinned) {
					t.Errorf("pass %d diverged from the pinned records\n%s", pass, diffLines(pinned, got))
				}
				if pass == 2 && (after.MeasureHits == before.MeasureHits || after.MeasureMisses != before.MeasureMisses) {
					t.Errorf("pass 2: %d measurement hits, %d misses; want only hits",
						after.MeasureHits-before.MeasureHits, after.MeasureMisses-before.MeasureMisses)
				}
			}
		})
	}
}

// TestWarmFig6KeysFromChainMemo counts the result cache's keys over a warm
// fig6 pass: every suite launch — a benchmark's first, on the image its
// instance restored from the benchmark's template, as much as the chained
// ones — is keyed from the chain memo, so no launch key rehashes a suite
// image.
func TestWarmFig6KeysFromChainMemo(t *testing.T) {
	sc, ok := sweep.Lookup("fig6")
	if !ok {
		t.Fatal("scenario fig6 not registered")
	}
	var launches uint64
	for _, f := range bench.Suite() {
		inst, err := f.Make()
		if err != nil {
			t.Fatal(err)
		}
		launches += 2 * uint64(len(inst.Runs)) // both GPUs
	}
	var before, after simcache.Stats
	for pass := 1; pass <= 2; pass++ {
		plan, err := sc.Spec().Plan(nil)
		if err != nil {
			t.Fatal(err)
		}
		before = simcache.Default().Stats()
		if _, err := plan.Run(nil); err != nil {
			t.Fatal(err)
		}
		after = simcache.Default().Stats()
	}
	runs := after.Hits + after.Misses - before.Hits - before.Misses
	if chained := after.ChainKeys - before.ChainKeys; runs != launches || chained != launches || after.Misses != before.Misses {
		t.Errorf("warm pass: %d cache runs (%d misses), %d keyed from the chain memo; want %d launches, all keyed from the memo",
			runs, after.Misses-before.Misses, chained, launches)
	}
}
