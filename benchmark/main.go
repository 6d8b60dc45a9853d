// Command benchmark measures this repository end to end and layer by layer,
// at default settings, on four workloads:
//
//   - sim-suite: the twelve Table I benchmarks on GT240 and GTX580, one
//     simulation at a time (core.Simulator Simulate + EvaluatePower + Verify);
//   - sweep-cold: the paper reproduction (fig6, the five ablations,
//     energyperop, dvfs) with the simulation cache reset before each scenario;
//   - sweep-warm: the same scenario set with every timing group a cache hit;
//   - serve: gpowfleet in front of two gpowd backends, driven by two
//     service.Clients in a closed loop.
//
// One invocation runs one workload and prints a host block, one line per
// metric (value, unit, sample count) and, last, one JSON result line:
//
//	bash benchmark/run.sh --workload sim-suite --seed 1 --seconds 10 --trace 0
//
// --trace 1 replaces the end-to-end metrics with the per-layer ones: the
// workload's passes alternate between traced and untraced, spans are written
// to a file, and a fixed set of layer probes times calls into each package.
// Without --workload every workload runs in its own child process. The seed
// only orders kernels, scenarios and requests; the run length follows from
// --seconds. See README.md for the metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	_ "gpusimpow/internal/experiments" // registers every scenario
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // span file written in trace mode
	bin      string // directory holding the gpowd and gpowfleet binaries
	workdir  string // scratch space for daemon state, journals and spans
}

// workload is one named traffic mix. run does the set-up and the timed
// passes and fills the run's samples.
type workload struct {
	name string
	run  func(r *runCtx) error
}

var workloads = []workload{
	{"sim-suite", runSimSuite},
	{"sweep-cold", func(r *runCtx) error { return runSweeps(r, true) }},
	{"sweep-warm", func(r *runCtx) error { return runSweeps(r, false) }},
	{"serve", runServe},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// GPUSIMPOW_* variables change the defaults being measured (cache,
	// worker counts, fault injection), so a run under them would measure
	// something users do not run.
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GPUSIMPOW_") {
			name, _, _ := strings.Cut(kv, "=")
			fmt.Fprintf(os.Stderr, "benchmark: refusing to run with %s set: it changes the defaults being measured\n", name)
			return 2
		}
	}
	if opts.workload == "" {
		return runChildren(args)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == opts.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", opts.workload)
		return 2
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	hb, _ := json.Marshal(hostInfo())
	fmt.Printf("host %s\n", hb)
	r := newRunCtx(opts)
	res, err := r.execute(w)
	for _, p := range r.problems {
		fmt.Println("FAIL", p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (sim-suite, sweep-cold, sweep-warm, serve); empty runs all, each in a child process")
	fs.Uint64Var(&o.seed, "seed", 1, "orders kernels, scenarios and requests")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time the run length is sized for")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.spans, "spans", "", "trace mode: write the spans here (default <workdir>/spans-<workload>.json)")
	fs.StringVar(&o.bin, "bin", "", "directory with the gpowd and gpowfleet binaries (default: next to this executable)")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for daemon state, journals and spans")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	if o.bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return o, err
		}
		o.bin = filepath.Dir(exe)
	}
	if o.spans == "" {
		o.spans = filepath.Join(o.workdir, "spans-"+o.workload+".json")
	}
	return o, nil
}

// runChildren runs every workload in its own child process, so one
// workload's heap, cache and peak RSS never leak into the next.
func runChildren(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// hostBlock records the facts a measurement depends on.
type hostBlock struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"git_revision"`
}

func hostInfo() hostBlock {
	h := hostBlock{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		Revision:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The revision is stamped by the Go toolchain when the benchmark is
	// built inside a git checkout; an exported tree has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Revision != "unknown" {
			h.Revision += "+dirty"
		}
	}
	return h
}

// metricSpec declares one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with --trace 0; the
// names and units match BENCHMARK.json (checked by the smoke test).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"repro_ms", "ms"},
	{"records_per_s", "records/s"},
	{"sim_warp_instr_per_s", "warp-instr/s"},
	{"first_record_p50_ms", "ms"},
	{"first_record_p90_ms", "ms"},
	{"fig6_err_gt240_pct", "%"},
	{"fig6_err_gtx580_pct", "%"},
}

// perLayer lists the metrics every workload reports with --trace 1.
var perLayer = []metricSpec{
	{"trace.overhead_pct", "%"},
	{"trace.harness_self_pct", "%"},
	{"runtime.alloc_mb_per_pass", "MiB"},
	{"runtime.allocs_per_pass", "count"},
	{"runtime.gc_per_pass", "count"},
	{"simcache.hits", "count"},
	{"simcache.misses", "count"},
	{"kernel.interp_ns_per_warp_instr", "ns"},
	{"sim.run_ns_per_cycle", "ns"},
	{"sim.run_ns_per_warp_instr", "ns"},
	{"sim.dense_over_event_ratio", "ratio"},
	{"simcache.key_us_per_launch", "us"},
	{"simcache.hit_us_per_launch", "us"},
	{"simcache.miss_overhead_pct", "%"},
	{"power.eval_us_per_cell", "us"},
	{"power.new_us", "us"},
	{"hw.measure_ms_per_cell", "ms"},
	{"sweep.plan_ms", "ms"},
	{"sweep.run_ms", "ms"},
	{"sweep.records_ms", "ms"},
	{"sweep.reduce_ms", "ms"},
	{"sweep.timing_groups", "count"},
	{"sweep.cells", "count"},
	{"model.sim_cycles", "cycles"},
	{"model.warp_instrs", "count"},
	{"model.ipc", "warp-instr/cycle"},
	{"model.l1_hit_rate", "ratio"},
	{"model.l2_hit_rate", "ratio"},
	{"model.dram_bursts", "count"},
	{"service.submit_p50_ms", "ms"},
	{"service.first_record_p50_ms", "ms"},
	{"service.report_p50_ms", "ms"},
	{"service.healthz_p50_ms", "ms"},
	{"service.simcache_hit_ratio", "ratio"},
	{"fleet.proxy_overhead_p50_ms", "ms"},
	{"fleet.owner_share_max", "ratio"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.append_us", "us"},
	{"journal.compact_ms", "ms"},
	{"serve.first_record_p99_ms", "ms"},
}

// value is one measured metric: its value and how many samples it
// summarizes (1 for a count or a single measurement).
type value struct {
	v float64
	n int
}

// result is the run's outcome in the output format's shape.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`

	specs   []metricSpec
	samples map[string]int
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult assembles the declared metrics from the measured values; a
// declared metric that was not measured is an error.
func newResult(specs []metricSpec, vals map[string]value, attempted, failed int, correct bool) (*result, error) {
	res := &result{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricJSON{}, specs: specs, samples: map[string]int{},
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricJSON{Value: v.v, Unit: s.unit}
		res.samples[s.name] = v.n
	}
	return res, nil
}

// print writes one line per metric, then the JSON result as the last line.
func (res *result) print(w io.Writer) {
	names := make([]string, 0, len(res.specs))
	for _, s := range res.specs {
		names = append(names, s.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %16.6g %-16s n=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	fmt.Fprintf(w, "failed_ratio %.6g (%d/%d ops)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	b, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", b)
}

// seededRand returns the run's generator: the seed orders work, never sizes it.
func seededRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }
