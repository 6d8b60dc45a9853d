package power

import (
	"reflect"
	"testing"

	"gpusimpow/internal/config"
)

// TestModelKeepsItsOwnConfiguration changes fields New read, after
// New: the model's static and runtime reports must not move.
func TestModelKeepsItsOwnConfiguration(t *testing.T) {
	cfg := config.GT240()
	m := mustModel(t, cfg)
	res := runBusyKernel(t, config.GT240())
	static := m.Static()
	rt, err := m.Evaluate(res)
	if err != nil {
		t.Fatal(err)
	}

	cfg.ProcessNM = 28
	cfg.CoreClockMHz *= 2
	cfg.Clusters = 2
	cfg.MemChannels = 8
	cfg.Power.FPOpPJ *= 3
	cfg.Power.DynScaleFactor *= 2
	cfg.Power.LeakageTempFactor *= 2
	if got := m.Static(); !reflect.DeepEqual(got, static) {
		t.Errorf("Static moved with the caller's configuration:\n%+v\nwant\n%+v", got, static)
	}
	got, err := m.Evaluate(res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rt) {
		t.Error("Evaluate moved with the caller's configuration")
	}
}
