package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around its calls into the repository's packages.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a pass or a serve job
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now, EndNS: now, Workload: t.workload, Pass: pass})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// spanAgg sums one span name's calls.
type spanAgg struct {
	calls       int
	total, self time.Duration
}

// selfTimes aggregates each span name's total and self time (its duration
// minus the part its children cover) and returns the share of root-span
// time that no child covers: the harness's own time.
func (t *tracer) selfTimes() (map[string]*spanAgg, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanAgg{}
	var rootTotal, rootSelf int64
	for _, s := range t.spans {
		self := s.EndNS - s.StartNS - covered(s, children[s.ID])
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.calls++
		a.total += time.Duration(s.EndNS - s.StartNS)
		a.self += time.Duration(self)
		if s.Parent < 0 {
			rootTotal += s.EndNS - s.StartNS
			rootSelf += self
		}
	}
	if rootTotal == 0 {
		return out, 0
	}
	return out, 100 * float64(rootSelf) / float64(rootTotal)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
