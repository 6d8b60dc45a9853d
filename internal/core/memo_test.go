package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/power"
)

// singleFieldChanges returns the name of every leaf field of GPU and, for
// each that can change alone, a GT240 with that one field changed to the
// first candidate value Validate accepts.
func singleFieldChanges() (fields []string, changed map[string]*config.GPU) {
	changed = map[string]*config.GPU{}
	var walk func(typ reflect.Type, path []int, prefix string)
	walk = func(typ reflect.Type, path []int, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p := append(append([]int(nil), path...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, prefix+f.Name+".")
				continue
			}
			fields = append(fields, prefix+f.Name)
			for _, cand := range candidates(reflect.ValueOf(config.GT240()).Elem().FieldByIndex(p)) {
				cfg := config.GT240()
				reflect.ValueOf(cfg).Elem().FieldByIndex(p).Set(cand)
				if cfg.Validate() == nil {
					changed[prefix+f.Name] = cfg
					break
				}
			}
		}
	}
	walk(reflect.TypeOf(config.GPU{}), nil, "")
	return fields, changed
}

// candidates lists values other than v's, in the order to try them.
func candidates(v reflect.Value) []reflect.Value {
	var vals []any
	switch v.Kind() {
	case reflect.String:
		vals = []any{v.String() + "x", "", "gpu", "rr", "gto", "gddr5", "ddr3"}
	case reflect.Bool:
		vals = []any{!v.Bool()}
	case reflect.Int:
		n := int(v.Int())
		vals = []any{n + 1, n - 1, 2 * n, n / 2}
	case reflect.Float64:
		x := v.Float()
		vals = []any{math.Nextafter(x, math.Inf(1)), math.Nextafter(x, 0)}
	default:
		panic(fmt.Sprintf("unhandled kind %s", v.Kind()))
	}
	var out []reflect.Value
	for _, c := range vals {
		if c != v.Interface() {
			out = append(out, reflect.ValueOf(c))
		}
	}
	return out
}

// TestNewSharesOneInstancePerValue: equal configuration values share one
// Simulator and one power model, and changing any single field of the
// configuration gives another of each. The fields that cannot change
// alone are tied to others by Validate: the warp geometry to itself, and
// a GT240's scoreboard flag to its zero scoreboard entries.
func TestNewSharesOneInstancePerValue(t *testing.T) {
	base, err := New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if again, err := New(config.GT240()); err != nil || again != base {
		t.Fatalf("equal configurations got different simulators (%v)", err)
	}
	baseModel, err := power.New(config.GT240())
	if err != nil {
		t.Fatal(err)
	}
	if base.pow != baseModel {
		t.Error("the simulator's power model is not the configuration's shared one")
	}

	fields, changes := singleFieldChanges()
	for name, cfg := range changes {
		s, err := New(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s == base {
			t.Errorf("changing %s shares the simulator", name)
		}
		if m, err := power.New(cfg); err != nil || m == baseModel {
			t.Errorf("changing %s shares the power model (%v)", name, err)
		}
	}
	tied := map[string]bool{"WarpSize": true, "MaxWarpsPerCore": true, "MaxThreadsPerCore": true, "HasScoreboard": true}
	for _, name := range fields {
		if _, ok := changes[name]; ok == tied[name] {
			t.Errorf("%s: changed alone %v, listed as tied %v", name, ok, tied[name])
		}
	}
}

// TestNewConcurrentFirstCallsAgree races first calls for a configuration
// no other test builds. Run it under -race.
func TestNewConcurrentFirstCallsAgree(t *testing.T) {
	cfg := config.GT240()
	cfg.Name = "GT240/concurrent-first-calls"
	const n = 8
	got := make([]*Simulator, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := *cfg
			<-start
			s, err := New(&c)
			if err != nil {
				t.Error(err)
			}
			got[i] = s
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got another simulator than caller 0", i)
		}
	}
}

func TestNewHitAllocatesNothing(t *testing.T) {
	cfg := config.GTX580()
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { New(cfg) }); n != 0 {
		t.Errorf("a memo hit allocates %v times", n)
	}
}
