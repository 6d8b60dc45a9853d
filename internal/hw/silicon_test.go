package hw

import (
	"reflect"
	"testing"

	"gpusimpow/internal/config"
)

// TestCardsShareSiliconNotNoise: the cards of one configuration share its
// silicon, and each starts its own copy of the noise stream, so what one
// card measured never shows in another's measurement.
func TestCardsShareSiliconNotNoise(t *testing.T) {
	cfg := config.GTX580()
	l, mem := busyLaunch(2)
	items := []SeqItem{{Launch: l, Mem: mem, Repeats: 2}}

	a, err := NewCard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.silicon != b.silicon {
		t.Error("two cards of one configuration built their silicon twice")
	}
	trA, measA, err := a.MeasureSequence(items)
	if err != nil {
		t.Fatal(err)
	}
	trB, measB, err := b.MeasureSequence(items)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trA, trB) || !sameMeasurements(measA, measB) {
		t.Error("two NewCard calls measure one sequence differently")
	}

	first := func() ([]Measurement, uint64) {
		t.Helper()
		c, err := NewCardSession(cfg, "silicon-test")
		if err != nil {
			t.Fatal(err)
		}
		ms, err := c.Measure(items)
		if err != nil {
			t.Fatal(err)
		}
		return ms, c.chain.noise.state
	}
	want, wantState := first()
	other, err := NewCardSession(cfg, "silicon-test/other")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := other.Measure(items); err != nil {
			t.Fatal(err)
		}
	}
	got, gotState := first()
	if !sameMeasurements(got, want) || gotState != wantState {
		t.Error("a session's first measurement depends on another session's")
	}
}
