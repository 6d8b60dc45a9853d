package experiments

import (
	"bytes"
	"os"
	"testing"

	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// TestMeasureMemoDeterminism runs fig6 (a card session per cell) and
// energyperop (one shared card) twice in one process, the second time with
// every measurement a memo hit. Both record streams must equal the pinned
// records byte for byte, and, without the cache provenance a bypassed run
// cannot carry (timing key and memory hash), a run that bypasses the
// result cache.
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
			// run returns the record stream, and the same stream without
			// cache provenance.
			run := func(bypass bool) (full, bare []byte) {
				plan, err := sc.Spec().Plan(nil)
				if err != nil {
					t.Fatal(err)
				}
				if bypass {
					for _, c := range plan.Cells {
						cfg := *c.Cfg
						cfg.DisableSimCache = true
						c.Cfg = &cfg
					}
				}
				rs, err := plan.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				recs := plan.Records(rs)
				full = encodeRecords(t, recs)
				for _, rec := range recs {
					for _, u := range rec.Units {
						if u.Timing != nil {
							u.Timing.TimingKey, u.Timing.MemHash = "", ""
						}
					}
				}
				return full, encodeRecords(t, recs)
			}
			pinned, err := os.ReadFile(recordsPath(name))
			if err != nil {
				t.Fatal(err)
			}
			_, want := run(true)
			simcache.Default().Reset()
			for pass := 1; pass <= 2; pass++ {
				before := simcache.Default().Stats()
				full, bare := run(false)
				after := simcache.Default().Stats()
				if !bytes.Equal(full, pinned) {
					t.Errorf("pass %d diverged from the pinned records\n%s", pass, diffLines(pinned, full))
				}
				if !bytes.Equal(bare, want) {
					t.Errorf("pass %d diverged from the bypassed run\n%s", pass, diffLines(want, bare))
				}
				if v := os.Getenv("GPUSIMPOW_DISABLE_SIM_CACHE"); pass == 2 && (v == "" || v == "0") &&
					(after.MeasureHits == before.MeasureHits || after.MeasureMisses != before.MeasureMisses) {
					t.Errorf("pass 2: %d measurement hits, %d misses; want only hits",
						after.MeasureHits-before.MeasureHits, after.MeasureMisses-before.MeasureMisses)
				}
			}
		})
	}
}
