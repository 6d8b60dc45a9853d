package config

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// newBox is a Memo builder whose every value is distinct, so a test can
// tell a build from a hit by pointer, and which records the configuration
// it was given.
func newBox(cfg *GPU) (**GPU, error) { return &cfg, nil }

func TestMemoSharesOneValuePerConfiguration(t *testing.T) {
	var m Memo[**GPU]
	a, err := m.Get(GT240(), newBox)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Get(GT240(), newBox)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal configurations got different values")
	}
	c, err := m.Get(GTX580(), newBox)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different configurations share a value")
	}
}

func TestMemoBuildsOnItsOwnCopy(t *testing.T) {
	var m Memo[**GPU]
	cfg := GT240()
	v, err := m.Get(cfg, newBox)
	if err != nil {
		t.Fatal(err)
	}
	if *v == cfg {
		t.Fatal("build received the caller's configuration, not a copy")
	}
	cfg.Clusters = 2
	if (*v).Clusters == 2 {
		t.Error("a change to the caller's configuration reached the built value")
	}
	again, err := m.Get(GT240(), newBox)
	if err != nil {
		t.Fatal(err)
	}
	if again != v {
		t.Error("a change to the caller's configuration moved the memo's key")
	}
}

func TestMemoStoresOnlyValidBuiltConfigurations(t *testing.T) {
	var m Memo[**GPU]
	bad := GT240()
	bad.CoreClockMHz = math.NaN()
	builds := 0
	count := func(cfg *GPU) (**GPU, error) { builds++; return newBox(cfg) }
	for i := 0; i < 3; i++ {
		if _, err := m.Get(bad, count); err == nil {
			t.Fatal("an invalid configuration built")
		}
	}
	if builds != 0 {
		t.Errorf("an invalid configuration reached the builder %d times", builds)
	}

	boom := errors.New("boom")
	failing := func(*GPU) (**GPU, error) { builds++; return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := m.Get(GT240(), failing); !errors.Is(err, boom) {
			t.Fatalf("got %v, want the build's error", err)
		}
	}
	if builds != 2 {
		t.Errorf("a failed build was stored: %d builds for 2 calls", builds)
	}
	if len(m.built) != 0 {
		t.Errorf("memo holds %d values after only failures", len(m.built))
	}
}

// TestMemoConcurrentFirstCallsAgree races first calls for one
// configuration: however many build, every caller gets the first stored
// value. Run it under -race.
func TestMemoConcurrentFirstCallsAgree(t *testing.T) {
	var m Memo[**GPU]
	const n = 8
	got := make([]**GPU, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := m.Get(GT240(), newBox)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got another value than caller 0", i)
		}
	}
}

func TestMemoHitAllocatesNothing(t *testing.T) {
	var m Memo[**GPU]
	cfg := GT240()
	if _, err := m.Get(cfg, newBox); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Get(cfg, newBox) }); n != 0 {
		t.Errorf("a hit allocates %v times", n)
	}
}

func TestMemoIsBounded(t *testing.T) {
	var m Memo[**GPU]
	cfg := GT240()
	for i := 0; i < memoCap+10; i++ {
		cfg.Power.TempCelsius = float64(i)
		if _, err := m.Get(cfg, newBox); err != nil {
			t.Fatal(err)
		}
		if len(m.built) > memoCap {
			t.Fatalf("memo holds %d values, cap %d", len(m.built), memoCap)
		}
	}
}

// TestValidateRejectsNonFiniteAndSignedFloats sets every float field of
// GPU and PowerCal, found by reflection so a new field is covered too, to
// NaN, ±Inf, -0 and -1 in turn: Validate must reject each. Without the
// rule a NaN clock validates and then stalls the simulator, a NaN energy
// makes a report json.Marshal cannot encode, and Memo would keep one entry
// per NaN request (NaN != NaN) and share one between +0 and -0, whose
// timing keys differ.
func TestValidateRejectsNonFiniteAndSignedFloats(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -1}
	fields := 0
	forEachFloat(reflect.TypeOf(GPU{}), nil, func(path []int, name string) {
		fields++
		for _, v := range bad {
			g := GT240()
			reflect.ValueOf(g).Elem().FieldByIndex(path).SetFloat(v)
			if err := g.Validate(); err == nil {
				t.Errorf("%s = %v passes Validate", name, v)
			}
		}
	})
	if fields != 32 {
		t.Errorf("walked %d float fields, want 32 (update this count with a new field)", fields)
	}
}

// forEachFloat calls fn with the index path and name of every float64
// field of t, descending into struct fields.
func forEachFloat(t reflect.Type, prefix []int, fn func(path []int, name string)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(append([]int(nil), prefix...), i)
		switch f.Type.Kind() {
		case reflect.Float64:
			fn(path, f.Name)
		case reflect.Struct:
			forEachFloat(f.Type, path, fn)
		}
	}
}
