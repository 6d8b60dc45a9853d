package service

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	cases := []struct {
		spec        string
		fault       Fault
		skip, times int
		ok          bool
	}{
		{"", 0, 0, 1, true}, // arms nothing
		{"crash-after-record", FaultCrashAfterRecord, 0, 1, true},
		{"blackhole-probe:skip=2", FaultBlackholeProbe, 2, 1, true},
		{"blackhole-probe:times=4", FaultBlackholeProbe, 0, 4, true},
		{"sever-proxied-stream:skip=1:times=2", FaultSeverProxiedStream, 1, 2, true},
		{"sever-proxied-stream:times=2:skip=1", FaultSeverProxiedStream, 1, 2, true},
		{"drop-backend-mid-stream:skip=" + strconv.Itoa(math.MaxInt-1), FaultDropBackendMidStream, math.MaxInt - 1, 1, true},
		{":skip=1", 0, 0, 0, false},
		{"typo-point", 0, 0, 0, false},
		{"crash-after-record:3", 0, 0, 0, false}, // bare skip count: spell it skip=3
		{"panic-in-reduce:-1", 0, 0, 0, false},
		{"panic-in-reduce:skip=-1", 0, 0, 0, false},
		{"panic-in-reduce:times=0", 0, 0, 0, false},
		{"panic-in-reduce:times=x", 0, 0, 0, false},
		{"panic-in-reduce:bogus=1", 0, 0, 0, false},
		{"panic-in-reduce:3:times=2", 0, 0, 0, false},
		{"panic-in-reduce:skip=1:2", 0, 0, 0, false},
		{"blackhole-probe:skip=1:skip=2", 0, 0, 0, false}, // a repeated key must not silently win
		{"blackhole-probe:times=1:times=1", 0, 0, 0, false},
		{"blackhole-probe:skip=" + maxInt, 0, 0, 0, false}, // skip+times overflows: would never fire
		{"blackhole-probe:skip=" + maxInt + ":times=2", 0, 0, 0, false},
	}
	for _, c := range cases {
		got, err := parseFault(c.spec)
		if (err == nil) != c.ok || (err == nil && (got.fault != c.fault || got.skip != c.skip || got.times != c.times)) {
			t.Errorf("parseFault(%q) = %+v, %v; want {%v %d %d}, ok=%v", c.spec, got, err, c.fault, c.skip, c.times, c.ok)
		}
	}
}

// An unknown name and a malformed spec both fail construction, with an
// error that lists every declared fault.
func TestArmFaultRefusesBadSpecs(t *testing.T) {
	for _, spec := range []string{"typo-point", "crash-after-record:3"} {
		t.Setenv("GPUSIMPOW_FAULTPOINT", spec)
		m, err := OpenManager(Options{MaxConcurrent: 1})
		if err == nil {
			m.Close()
			t.Fatalf("OpenManager under %q succeeded", spec)
		}
		for _, name := range faultNames[1:] {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%q: error %q does not list %s", spec, err, name)
			}
		}
	}
}

func TestFaultpointCountedWindow(t *testing.T) {
	a, err := parseFault("blackhole-probe:skip=2:times=3")
	if err != nil {
		t.Fatal(err)
	}
	var fired []bool
	for i := 0; i < 7; i++ {
		fired = append(fired, a.Fire(FaultBlackholeProbe))
	}
	want := []bool{false, false, true, true, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hit %d fired=%v, want %v (all: %v)", i+1, fired[i], want[i], fired)
		}
	}
	if a.Fire(FaultSeverProxiedStream) {
		t.Error("unarmed point fired")
	}

	// Handlers hit the counter from many goroutines at once: the window
	// still fires exactly times times.
	a, err = parseFault("blackhole-probe:skip=5:times=7")
	if err != nil {
		t.Fatal(err)
	}
	var fires atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if a.Fire(FaultBlackholeProbe) {
					fires.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := fires.Load(); n != 7 {
		t.Errorf("80 concurrent hits fired %d times, want 7", n)
	}
}

// Each Manager arms the spec in force when it is built and counts its own
// hits: two managers in one process fault independently.
func TestManagersArmIndependently(t *testing.T) {
	t.Setenv("GPUSIMPOW_FAULTPOINT", "panic-in-reduce:skip=1")
	m1 := NewManager(Options{MaxConcurrent: 1})
	defer m1.Close()
	t.Setenv("GPUSIMPOW_FAULTPOINT", "panic-in-reduce:times=2")
	m2 := NewManager(Options{MaxConcurrent: 1})
	defer m2.Close()
	t.Setenv("GPUSIMPOW_FAULTPOINT", "")
	m3 := NewManager(Options{MaxConcurrent: 1})
	defer m3.Close()

	var got [3][]bool
	for i := 0; i < 3; i++ {
		for k, m := range []*Manager{m1, m2, m3} {
			got[k] = append(got[k], m.fault.Fire(FaultPanicInReduce))
		}
	}
	want := [3][]bool{{false, true, false}, {true, true, false}, {false, false, false}}
	for k := range want {
		for i := range want[k] {
			if got[k][i] != want[k][i] {
				t.Fatalf("manager %d fired %v, want %v", k+1, got[k], want[k])
			}
		}
	}
}

// FuzzParseFaults: parseFault never panics, and a spec it accepts names a
// declared fault, has skip >= 0 and times >= 1, and fires on exactly hits
// skip+1..skip+times.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"", "crash-after-record", "blackhole-probe:skip=2:times=3",
		"sever-proxied-stream:times=2:skip=1", "blackhole-probe:skip=1:skip=2",
		"panic-in-reduce:skip=9223372036854775806", "typo-point", "crash-after-record:3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := parseFault(spec)
		if err != nil {
			return
		}
		if spec == "" {
			if a.fault != 0 {
				t.Fatalf("empty spec armed %v", a.fault)
			}
			return
		}
		if a.fault == 0 || int(a.fault) >= len(faultNames) || a.skip < 0 || a.times < 1 {
			t.Fatalf("parseFault(%q) accepted %+v", spec, a)
		}
		if name := a.fault.String(); spec != name && !strings.HasPrefix(spec, name+":") {
			t.Fatalf("parseFault(%q) armed %v", spec, a.fault)
		}
		for f := Fault(1); int(f) < len(faultNames); f++ {
			if f != a.fault && a.Fire(f) {
				t.Fatalf("%q: unarmed %v fired", spec, f)
			}
		}
		// Hit h fires iff skip < h <= skip+times. Walk a short window hit
		// by hit; check a long one at its edges (last+1 wraps below 1
		// when last is MaxInt, and is skipped).
		last := a.skip + a.times
		hits := []int{1, a.skip, a.skip + 1, last, last + 1}
		if last < 64 {
			hits = hits[:0]
			for h := 1; h <= last+1; h++ {
				hits = append(hits, h)
			}
		}
		for _, h := range hits {
			if h < 1 {
				continue
			}
			a.hits.Store(int64(h - 1))
			if got, want := a.Fire(a.fault), h > a.skip && h <= last; got != want {
				t.Fatalf("%q: hit %d fired=%v, want %v", spec, h, got, want)
			}
		}
	})
}
