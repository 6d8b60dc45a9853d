package sweep_test

import (
	"testing"

	_ "gpusimpow/internal/experiments" // registers the scenarios
	"gpusimpow/internal/sweep"
)

// TestPlannedKeysMatchConfigurations: for every cell of every registered
// scenario, the timing key the plan stored, which grouping, measurement
// and routing read, is the cell configuration's own.
func TestPlannedKeysMatchConfigurations(t *testing.T) {
	planned := 0
	for _, sc := range sweep.Scenarios() {
		if sc.Spec == nil {
			continue
		}
		p, err := sc.Spec().Plan(nil)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, c := range p.Cells {
			if sweep.PlannedTimingKey(c) != c.Cfg.TimingKey() {
				t.Errorf("%s: %s: planned timing key is not the configuration's", sc.Name, c)
			}
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("no scenario planned a cell")
	}
}
