package service

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		spec string
		want faultSpec
		ok   bool
	}{
		{"crash-after-record", faultSpec{"crash-after-record", 0, 1}, true},
		{"blackhole-probe:skip=2", faultSpec{"blackhole-probe", 2, 1}, true},
		{"blackhole-probe:times=4", faultSpec{"blackhole-probe", 0, 4}, true},
		{"sever-proxied-stream:skip=1:times=2", faultSpec{"sever-proxied-stream", 1, 2}, true},
		{"sever-proxied-stream:times=2:skip=1", faultSpec{"sever-proxied-stream", 1, 2}, true},
		{"", faultSpec{}, false},
		{":skip=1", faultSpec{}, false},
		{"crash-after-record:3", faultSpec{}, false}, // bare skip count: spell it skip=3
		{"name:-1", faultSpec{}, false},
		{"name:skip=-1", faultSpec{}, false},
		{"name:times=0", faultSpec{}, false},
		{"name:times=x", faultSpec{}, false},
		{"name:bogus=1", faultSpec{}, false},
		{"name:3:times=2", faultSpec{}, false},
		{"name:skip=1:2", faultSpec{}, false},
	}
	for _, c := range cases {
		got, ok := parseFaultSpec(c.spec)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseFaultSpec(%q) = %+v, %v; want %+v, %v", c.spec, got, ok, c.want, c.ok)
		}
	}
}

func TestFaultpointCountedWindow(t *testing.T) {
	t.Setenv("GPUSIMPOW_FAULTPOINT", "blackhole-probe:skip=2:times=3")
	ResetFaultpoints()
	defer ResetFaultpoints()
	var fired []bool
	for i := 0; i < 7; i++ {
		fired = append(fired, Faultpoint(FaultBlackholeProbe))
	}
	want := []bool{false, false, true, true, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("hit %d fired=%v, want %v (all: %v)", i+1, fired[i], want[i], fired)
		}
	}
	if Faultpoint(FaultSeverProxiedStream) {
		t.Error("unarmed point fired")
	}
}

// TestFaultpointManifest pins the embedded manifest to the Fault*
// constants: a name added on one side without the other fails here (and
// fails `make lint` via gpowlint's faultpoint pass, which additionally
// checks the shell drills). The shell half of the contract —
// require_faultpoint in scripts/service_lib.sh — greps the same file.
func TestFaultpointManifest(t *testing.T) {
	consts := []string{
		FaultCrashAfterRecord,
		FaultDropConnectionMidStream,
		FaultPanicInReduce,
		FaultBlackholeProbe,
		FaultSeverProxiedStream,
		FaultDropBackendMidStream,
	}
	sort.Strings(consts)
	declared := DeclaredFaultpoints()
	if !reflect.DeepEqual(declared, consts) {
		t.Fatalf("faultpoints.txt out of sync with Fault* constants:\nmanifest: %v\nconsts:   %v", declared, consts)
	}
	for _, name := range declared {
		if strings.TrimSpace(name) != name || name == "" || strings.HasPrefix(name, "#") {
			t.Errorf("malformed manifest name %q", name)
		}
	}
}
