package sweep

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"gpusimpow/internal/config"
)

// affinitySpec plans two timing groups split by workload name: "a" (value
// 1, first in leader order, one cell) and "b" (values 2 and 3, two cells).
// Its builds panic: routing must never build a workload.
func affinitySpec() *Spec {
	return &Spec{
		Name: "affinityprobe",
		Axes: []Axis{
			{Name: "v", Values: []Value{{Name: "1"}, {Name: "2"}, {Name: "3"}}},
		},
		Base: config.GT240,
		Workload: func(c *Cell) (*Workload, error) {
			name := "b"
			if c.Value("v") == "1" {
				name = "a"
			}
			return &Workload{Name: name, Build: func(*config.GPU) (*Instance, error) {
				panic("routing built a workload")
			}}, nil
		},
		Sim: true,
	}
}

func routingKeyOf(t *testing.T, filter ...string) (string, *Plan) {
	t.Helper()
	var f Filter
	if len(filter) > 0 {
		var err error
		if f, err = ParseFilter(filter); err != nil {
			t.Fatal(err)
		}
	}
	p, err := affinitySpec().Plan(f)
	if err != nil {
		t.Fatal(err)
	}
	return p.RoutingKey(), p
}

// The routing key names the dominant group — the one with the most cells —
// even when it is not first in leader order; on a tie the earliest group
// wins.
func TestRoutingKeyPicksDominantGroup(t *testing.T) {
	key, p := routingKeyOf(t)
	tk := p.Groups[1].Leader().Cfg.TimingKey()
	if want := hex.EncodeToString(tk[:]) + "/b"; key != want {
		t.Errorf("routing key %q, want the 2-cell group's %q", key, want)
	}

	key, p = routingKeyOf(t, "v=1,3")
	tk = p.Groups[0].Leader().Cfg.TimingKey()
	if want := hex.EncodeToString(tk[:]) + "/a"; key != want {
		t.Errorf("tied groups keyed %q, want the earliest group's %q", key, want)
	}
}

// A plan whose workloads cannot build still gets a key, the most-populous
// group's: routing never builds a workload, so a build error cannot reach it.
func TestRoutingKeyFallsBackToLargestGroup(t *testing.T) {
	s := affinitySpec()
	s.Name = "affinityfallback"
	wl := s.Workload
	s.Workload = func(c *Cell) (*Workload, error) {
		w, err := wl(c)
		if err != nil {
			return nil, err
		}
		w.Build = func(*config.GPU) (*Instance, error) {
			return nil, errors.New("unbuildable (injected)")
		}
		return w, nil
	}
	p, err := s.Plan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if key := p.RoutingKey(); !strings.HasSuffix(key, "/b") {
		t.Errorf("unbuildable plan keyed %q, want the 2-cell group's /b suffix", key)
	}
}

// The key is a pure function of the plan: replanning never moves it, and a
// single-group plan keys on that group.
func TestRoutingKeyDeterministic(t *testing.T) {
	want, _ := routingKeyOf(t)
	for i := 0; i < 10; i++ {
		if got, _ := routingKeyOf(t); got != want {
			t.Fatalf("replan %d: routing key %q, want %q", i, got, want)
		}
	}
	key, p := routingKeyOf(t, "v=2")
	tk := p.Groups[0].Leader().Cfg.TimingKey()
	if want := hex.EncodeToString(tk[:]) + "/b"; key != want {
		t.Errorf("single-group plan keyed %q, want %q", key, want)
	}
}
