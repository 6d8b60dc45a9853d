package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpusimpow/internal/simcache"
)

// runCtx is one workload run: its options, the seeded generator, and every
// sample the workload records. A workload's unit of work is a pass (a
// sim-suite or sweep pass, or one serve job); ops inside a pass each
// produce records.
type runCtx struct {
	opts   options
	rng    *rand.Rand
	tracer *tracer // nil unless --trace 1

	attempted, failed int
	problems          []string

	setupS  []float64 // one per set-up repetition
	passMS  []float64 // repro_ms samples
	firstMS []float64 // first-record latencies (in-process: per-op-type medians)
	recPerS []float64
	wiPerS  []float64
	fig6    map[string]float64 // GPU -> average relative error, %
	rssMB   []float64          // peak RSS per sampling window

	// Trace mode: pass durations split by whether the pass was traced, and
	// per-pass runtime and cache counters.
	tracedMS, plainMS []float64
	mem               memDelta
	memPasses         int
	cacheHits         float64
	cacheMisses       float64
	cachePasses       int
	cacheMark         simcache.Stats
	inPass            bool // cache traffic counts only inside timed passes
	layer             map[string]value

	// observed holds the verified quantities, for rewriting expected.json.
	observed expectations
}

func newRunCtx(opts options) *runCtx {
	r := &runCtx{
		opts: opts, rng: seededRand(opts.seed),
		fig6: map[string]float64{}, layer: map[string]value{},
		observed: expectations{Scenarios: map[string]string{}, Fig6ErrPct: map[string]float64{}},
	}
	if opts.trace {
		r.tracer = newTracer(opts.workload)
	}
	return r
}

// fail records a failed op or a verification mismatch.
func (r *runCtx) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// tr returns the tracer for pass p, or nil when the pass runs untraced:
// in trace mode even passes are traced and odd ones are not, so the two
// halves of one run give the tracing overhead.
func (r *runCtx) tr(p int) *tracer {
	if r.tracer == nil || p%2 != 0 {
		return nil
	}
	return r.tracer
}

// passCount sizes the run: the number of passes of nominal duration that
// fill the measured time, at least min. The count depends only on
// --seconds, so a faster commit does the same work as a slower one.
func (r *runCtx) passCount(nominal time.Duration, min int) int {
	n := int(math.Round(r.opts.seconds / nominal.Seconds()))
	if n < min {
		n = min
	}
	return n
}

// setupReps is how many times a workload repeats its set-up; setup_s is
// their median.
const setupReps = 3

// sampleSpan is the least work one pass-time sample covers. Other tenants
// of a shared host only ever slow work down, in bursts shorter than a
// second; a sample of passes shorter than this is the fastest of k
// back-to-back passes spanning it, which filters the bursts. The reported
// time is still the median over samples.
const sampleSpan = 200 * time.Millisecond

// passesPerSample is k for a workload whose passes take nominal.
func passesPerSample(nominal time.Duration) int {
	return max(1, int(math.Round(sampleSpan.Seconds()/nominal.Seconds())))
}

// opMedians reduces each op type's samples to their median: in-process
// workloads run every op type once per pass, so first-record quantiles
// are taken across op types, not across raw samples of a multi-modal mix.
func opMedians(byOp map[string][]float64) []float64 {
	out := make([]float64, 0, len(byOp))
	for _, xs := range byOp {
		out = append(out, median(xs))
	}
	return out
}

// pass brackets one timed pass of an in-process workload: it returns a
// function that takes the pass's duration (ms, measured by the caller) and
// records the cache hits and misses during the pass and, in trace mode,
// the pass's duration and runtime counters. The workload records its own
// samples.
func (r *runCtx) pass(p int) func(ms float64) {
	traced := r.tr(p) != nil
	var before runtime.MemStats
	if r.tracer != nil {
		runtime.ReadMemStats(&before)
	}
	r.cacheMark = simcache.Default().Stats()
	r.inPass = true
	return func(ms float64) {
		r.foldCache()
		r.inPass = false
		r.cachePasses++
		if r.tracer == nil {
			return
		}
		if traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			r.mem.add(&before, &after)
			r.memPasses++
			r.tracedMS = append(r.tracedMS, ms)
		} else {
			r.plainMS = append(r.plainMS, ms)
		}
	}
}

// memDelta accumulates runtime allocation counters over traced passes.
type memDelta struct{ allocBytes, allocs, gcs float64 }

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	d.allocs += float64(after.Mallocs - before.Mallocs)
	d.gcs += float64(after.NumGC - before.NumGC)
}

// resetCache empties the process-wide simulation cache after folding its
// counters into the run's totals (Reset zeroes them).
func (r *runCtx) resetCache() {
	r.foldCache()
	simcache.Default().Reset()
	r.cacheMark = simcache.Stats{}
}

// foldCache adds the cache hits and misses since the last mark, when
// inside a timed pass.
func (r *runCtx) foldCache() {
	st := simcache.Default().Stats()
	if r.inPass {
		r.cacheHits += float64(st.Hits - r.cacheMark.Hits)
		r.cacheMisses += float64(st.Misses - r.cacheMark.Misses)
	}
	r.cacheMark = st
}

// execute runs the workload and assembles the reported metrics.
func (r *runCtx) execute(w *workload) (*result, error) {
	if err := w.run(r); err != nil {
		return nil, err
	}
	correct := r.failed == 0 && len(r.problems) == 0
	if !r.opts.trace {
		return newResult(endToEnd, r.endToEndValues(), r.attempted, r.failed, correct)
	}
	if err := r.traceValues(); err != nil {
		return nil, err
	}
	if err := probeLayers(r); err != nil {
		return nil, err
	}
	return newResult(perLayer, r.layer, r.attempted, r.failed, correct)
}

func (r *runCtx) endToEndValues() map[string]value {
	v := map[string]value{
		"setup_s":              {median(r.setupS), len(r.setupS)},
		"peak_rss_mb":          {quantile(r.rssMB, 0.9), len(r.rssMB)},
		"repro_ms":             {median(r.passMS), len(r.passMS)},
		"records_per_s":        {median(r.recPerS), len(r.recPerS)},
		"sim_warp_instr_per_s": {median(r.wiPerS), len(r.wiPerS)},
		"first_record_p50_ms":  {quantile(r.firstMS, 0.5), len(r.firstMS)},
		"first_record_p90_ms":  {quantile(r.firstMS, 0.9), len(r.firstMS)},
	}
	for gpu, name := range map[string]string{"GT240": "fig6_err_gt240_pct", "GTX580": "fig6_err_gtx580_pct"} {
		if e, ok := r.fig6[gpu]; ok {
			v[name] = value{e, 1}
		}
	}
	for name, x := range v {
		if math.IsNaN(x.v) {
			delete(v, name) // reported as "not measured"
		}
	}
	return v
}

// traceValues derives the workload-scoped per-layer metrics from the
// traced run, prints the per-span self times and writes the span file.
func (r *runCtx) traceValues() error {
	if len(r.tracedMS) == 0 || len(r.plainMS) == 0 {
		return fmt.Errorf("trace mode needs at least two passes (have %d traced, %d untraced)", len(r.tracedMS), len(r.plainMS))
	}
	r.layer["trace.overhead_pct"] = value{100 * (median(r.tracedMS)/median(r.plainMS) - 1), len(r.passMS)}
	n := float64(r.memPasses)
	r.layer["runtime.alloc_mb_per_pass"] = value{r.mem.allocBytes / n / (1 << 20), r.memPasses}
	r.layer["runtime.allocs_per_pass"] = value{r.mem.allocs / n, r.memPasses}
	r.layer["runtime.gc_per_pass"] = value{r.mem.gcs / n, r.memPasses}
	cp := float64(max(r.cachePasses, 1))
	r.layer["simcache.hits"] = value{r.cacheHits / cp, r.cachePasses}
	r.layer["simcache.misses"] = value{r.cacheMisses / cp, r.cachePasses}

	self, harness := r.tracer.selfTimes()
	r.layer["trace.harness_self_pct"] = value{harness, len(r.tracedMS)}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]].self > self[names[j]].self })
	fmt.Printf("self time per span (%d traced passes)\n", len(r.tracedMS))
	for _, name := range names {
		a := self[name]
		fmt.Printf("  %-28s calls=%-6d total=%10.3f ms  self=%10.3f ms\n", name, a.calls, ms(a.total), ms(a.self))
	}
	if err := r.tracer.write(r.opts.spans, r.opts.seed); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", r.opts.spans)
	return nil
}

// resetPeakRSS sets a process's peak resident set size ("self" for this
// process) to its current one, so the next vmHWM covers only what follows.
func resetPeakRSS(pid string) error {
	if err := os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS of %s: %w", pid, err)
	}
	return nil
}

// endSetup frees the set-up's garbage and starts sampling this process's
// peak RSS, so peak_rss_mb covers the timed passes (and whatever set-up
// left live), not set-up's transient allocations.
func endSetup() (*rssSampler, error) {
	debug.FreeOSMemory()
	return startRSSSampler("self")
}

// rssWindow is the peak-RSS sampling period.
const rssWindow = 100 * time.Millisecond

// rssSampler records, once per window, the summed peak resident set size
// of a set of processes since the previous window, then resets their
// high-water marks. peak_rss_mb is the 90th percentile of these window
// peaks: a single peak over a whole run is set by one GC cycle, and a
// median misses the memory-heavy phases of a pass (cold simulation), while
// the 90th percentile lands in those phases on every run.
type rssSampler struct {
	pids    []string
	stopCh  chan struct{}
	once    sync.Once
	done    chan struct{}
	samples []float64 // MiB
	err     error
}

func startRSSSampler(pids ...string) (*rssSampler, error) {
	s := &rssSampler{pids: pids, stopCh: make(chan struct{}), done: make(chan struct{})}
	if err := s.reset(); err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

func (s *rssSampler) reset() error {
	for _, pid := range s.pids {
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
	}
	return nil
}

func (s *rssSampler) sample() error {
	var total float64
	for _, pid := range s.pids {
		mb, err := vmHWM(pid)
		if err != nil {
			return err
		}
		total += mb
	}
	s.samples = append(s.samples, total)
	return s.reset()
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	for {
		select {
		case <-s.stopCh:
			s.err = s.sample() // the last, partial window
			return
		case <-tick.C:
			if s.err = s.sample(); s.err != nil {
				return
			}
		}
	}
}

// stop ends sampling and waits for the sampler; safe to call twice.
func (s *rssSampler) stop() {
	s.once.Do(func() { close(s.stopCh) })
	<-s.done
}

// keepRSS stops the sampler and records its window peaks.
func (r *runCtx) keepRSS(s *rssSampler) error {
	s.stop()
	r.rssMB = s.samples
	return s.err
}

// vmHWM reads a process's peak resident set size in MiB ("self" for this
// process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// quantile is the q-quantile of xs, interpolating linearly between order
// statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
