// Command gpowexp regenerates the paper's evaluation artifacts — every
// table and figure of the ISPASS 2013 GPUSimPow paper, plus the
// microbenchmark, DVFS and ablation studies — from the scenario registry
// (internal/sweep). Scenarios are declarative sweeps; new ones register in
// internal/experiments without touching this command.
//
// Usage:
//
//	gpowexp [-remote URL] list                    # registered scenarios
//	gpowexp [-remote URL] run <name>... [-filter axis=v[,v]] [-stats] [-v]
//	                                    [-json] [-report] [-report-json]
//	gpowexp -remote URL report <job-id>... [-json]
//	gpowexp all [-stats]                          # every paper artifact
//	gpowexp <name>...                             # shorthand for run
//
// With -remote, list and run drive a gpowd daemon over the service API
// instead of linking the simulator in-process: run submits each scenario
// as a job and consumes the daemon's NDJSON streams (the events stream
// with -v — live [done/total] cell counts — the cells stream otherwise). The
// client is self-healing: it retries on connection errors and saturation
// (429/5xx, honoring Retry-After), submits idempotently, and resumes
// severed streams where they left off — a daemon restart mid-run costs
// wall-clock, not correctness. report fetches an existing daemon job's
// server-side reduction by job ID (e.g. one recovered from a previous
// daemon process), without resubmitting anything.
//
// Output modes:
//
//   - default: the scenario's formatted report in-process; generic
//     per-cell records remotely.
//   - -json: flat NDJSON cell records, bit-identical in-process and
//     remote (`make ci`'s service smoke target diffs them).
//   - -report: the scenario's reduced report rendered as text. Remotely
//     the daemon reduces server-side (GET /v1/jobs/{id}/report) and the
//     fetched report renders through the same sweep.RenderText — the
//     bytes match the in-process run exactly.
//   - -report-json: the reduced report as JSON, one line per scenario;
//     also byte-identical between the two modes (smoke-diffed).
//
// Examples:
//
//	gpowexp run fig6 -filter gpu=GT240
//	gpowexp run dvfs -filter scale=0.5,1.0 -stats
//	gpowexp run l1sched -json > cells.ndjson
//	gpowexp run fig6 -report-json | jq .sections[0].notes
//	gpowexp -remote http://127.0.0.1:8080 run fig6 -v -report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	_ "gpusimpow/internal/experiments" // registers every scenario
	"gpusimpow/internal/service"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("gpowexp", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = usage
	remote := fs.String("remote", "", "drive a gpowd daemon at this base URL instead of running in-process")
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp { // -h/-help/--help: usage already printed
			os.Exit(0)
		}
		os.Exit(2)
	}
	args := fs.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := dispatch(*remote, args...); err != nil {
		fmt.Fprintln(os.Stderr, "gpowexp:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gpowexp [-remote URL] list
       gpowexp [-remote URL] run <scenario>... [-filter axis=value[,value]]... [-stats] [-v]
                                               [-json] [-report] [-report-json]
       gpowexp -remote URL report <job-id>... [-json]
       gpowexp all [-stats]
       gpowexp <scenario>...`)
}

// outputMode selects what a run emits.
type outputMode int

const (
	modeDefault    outputMode = iota // formatted report locally, generic records remotely
	modeJSON                         // NDJSON cell records
	modeReport                       // reduced report, rendered as text
	modeReportJSON                   // reduced report, JSON
)

// dispatch interprets one command line (sans argv[0] and the global
// flags). remote is the daemon base URL ("" = in-process).
func dispatch(remote string, args ...string) error {
	switch args[0] {
	case "list":
		if remote != "" {
			return listRemote(os.Stdout, remote)
		}
		return list(os.Stdout)
	case "run":
		return runCmd(remote, args[1:])
	case "report":
		if remote == "" {
			return fmt.Errorf("`report` fetches an existing daemon job's reduction; it needs -remote URL")
		}
		return reportCmd(remote, args[1:])
	case "all":
		if remote != "" {
			return fmt.Errorf("`all` mixes table-style artifacts that only exist in-process; name sweep scenarios explicitly with -remote")
		}
		return runCmd(remote, append([]string{"-all"}, args[1:]...))
	case "help": // dashed spellings are consumed by the global flag set
		usage()
		return nil
	default:
		// Shorthand: bare scenario names run unfiltered (the pre-registry
		// command surface: `gpowexp table2 fig6 dvfs`).
		return runCmd(remote, args)
	}
}

// printAxis renders one axis line of a scenario listing (shared by the
// local and remote listings so their formats cannot drift apart).
func printAxis(w io.Writer, name string, values []string) {
	fmt.Fprintf(w, "  %-22s   axis %s:", "", name)
	for _, v := range values {
		fmt.Fprintf(w, " %s", v)
	}
	fmt.Fprintln(w)
}

// list prints every registered scenario with its axes.
func list(w io.Writer) error {
	fmt.Fprintln(w, "Registered scenarios:")
	for _, sc := range sweep.Scenarios() {
		fmt.Fprintf(w, "  %-22s %s\n", sc.Name, sc.Title)
		if sc.Spec != nil {
			for _, ax := range sc.Spec().Axes {
				vals := make([]string, len(ax.Values))
				for i := range ax.Values {
					vals[i] = ax.Values[i].Name
				}
				printAxis(w, ax.Name, vals)
			}
		}
	}
	fmt.Fprintln(w, "\nRun with: gpowexp run <scenario> [-filter axis=value[,value]]")
	return nil
}

// listRemote prints the daemon's scenario metadata.
func listRemote(w io.Writer, remote string) error {
	c := &service.Client{Base: remote}
	infos, err := c.Scenarios(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Scenarios registered at", remote, "(sweep scenarios are submittable):")
	for _, in := range infos {
		kind := "table"
		if in.Sweep {
			kind = fmt.Sprintf("%d cells, %d timing runs", in.Cells, in.TimingRuns)
		}
		fmt.Fprintf(w, "  %-22s %-34s %s\n", in.Name, "("+kind+")", in.Title)
		for _, ax := range in.Axes {
			vals := make([]string, len(ax.Values))
			for i := range ax.Values {
				vals[i] = ax.Values[i].Name
			}
			printAxis(w, ax.Name, vals)
		}
	}
	return nil
}

// filterFlag collects repeatable -filter arguments.
type filterFlag []string

func (f *filterFlag) String() string     { return fmt.Sprint(*f) }
func (f *filterFlag) Set(v string) error { *f = append(*f, v); return nil }

// runCmd runs one or more scenarios with shared flags.
func runCmd(remote string, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var filters filterFlag
	fs.Var(&filters, "filter", "restrict a sweep axis: axis=value[,value] (repeatable)")
	stats := fs.Bool("stats", false, "print simulation-result cache statistics after the run")
	verbose := fs.Bool("v", false, "stream per-cell progress to stderr")
	all := fs.Bool("all", false, "run every paper artifact (the `all` command)")
	jsonOut := fs.Bool("json", false, "emit flat cell records as NDJSON instead of the formatted report (sweep scenarios only)")
	report := fs.Bool("report", false, "render the scenario's reduced report (remote: fetched from /v1/jobs/{id}/report)")
	reportJSON := fs.Bool("report-json", false, "emit the scenario's reduced report as JSON, one line per scenario")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the local run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the run, post-GC) to this file")
	// Accept flags before, between and after scenario names.
	var names []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		names = append(names, rest[0])
		rest = rest[1:]
	}
	if *all {
		if len(names) > 0 {
			return fmt.Errorf("`all` takes no scenario names")
		}
		names = []string{"table2", "table4", "table5", "fig4", "fig6",
			"energyperop", "staticextrap", "dvfs", "ablation"}
	}
	if len(names) == 0 {
		usage()
		return fmt.Errorf("no scenario named (see `gpowexp list`)")
	}
	f, err := sweep.ParseFilter(filters)
	if err != nil {
		return err
	}
	mode := modeDefault
	set := 0
	for _, m := range []struct {
		on   bool
		mode outputMode
	}{{*jsonOut, modeJSON}, {*report, modeReport}, {*reportJSON, modeReportJSON}} {
		if m.on {
			mode = m.mode
			set++
		}
	}
	if set > 1 {
		return fmt.Errorf("-json, -report and -report-json are mutually exclusive")
	}

	if remote != "" {
		if *stats {
			return fmt.Errorf("-stats reads the in-process cache; the daemon's counters are its own")
		}
		if *cpuProfile != "" || *memProfile != "" {
			return fmt.Errorf("-cpuprofile/-memprofile profile the local process; they cannot observe a daemon")
		}
		return runRemote(remote, names, f, mode, *verbose)
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			pf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer pf.Close()
			// Post-GC snapshot: live steady-state allocations, not the
			// churn the collector already reclaimed.
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *verbose {
		// Stream per-cell completions (plan order) for every sweep the
		// scenarios execute.
		sweep.SetProgress(func(pr sweep.Progress) { progressLine(os.Stderr, &pr) })
		defer sweep.SetProgress(nil)
	}
	for i, name := range names {
		if i > 0 && mode != modeJSON && mode != modeReportJSON {
			fmt.Println()
		}
		switch mode {
		case modeJSON:
			err = runLocalJSON(os.Stdout, name, f)
		case modeReportJSON:
			err = runLocalReportJSON(os.Stdout, name, f)
		default:
			// modeReport is the default local rendering: every scenario
			// reduces and renders through sweep.RenderText.
			err = sweep.RunScenario(os.Stdout, name, f)
		}
		if err != nil {
			return err
		}
	}
	if *stats {
		printCacheStats(os.Stderr)
	}
	return nil
}

// reportCmd fetches existing daemon jobs' server-side reductions by job
// ID — how results survive their submitting client: a job recovered from
// a previous daemon process (or left over from another client's run) is
// reduced and fetched without resubmitting anything.
func reportCmd(remote string, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit each report as one JSON line instead of rendered text")
	// Accept flags before, between and after job IDs, like runCmd.
	var ids []string
	rest := args
	for {
		if err := fs.Parse(rest); err != nil {
			return err
		}
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if len(ids) == 0 {
		return fmt.Errorf("no job ID named (see `gpowexp -remote URL run`'s job output)")
	}
	c := &service.Client{Base: remote}
	ctx := context.Background()
	enc := json.NewEncoder(os.Stdout)
	for i, id := range ids {
		rep, err := c.Report(ctx, id)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		if err := sweep.RenderText(os.Stdout, rep); err != nil {
			return err
		}
	}
	return nil
}

// progressLine prints one cell-completion event to w — the same line
// whether the event came from the in-process hook or a daemon's events
// stream.
func progressLine(w io.Writer, pr *sweep.Progress) {
	fmt.Fprintf(w, "gpowexp: [%d/%d] %s done\n", pr.Done, pr.Total, pr.Cell.CoordString())
}

// runLocalReportJSON reduces one scenario in-process and emits the typed
// report as one JSON line — the same bytes `-remote run -report-json`
// prints after fetching the daemon's server-side reduction.
func runLocalReportJSON(w io.Writer, name string, f sweep.Filter) error {
	rep, err := sweep.BuildReport(name, f)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(rep)
}

// runLocalJSON runs one sweep scenario in-process and emits its cell
// records as NDJSON — the same records a gpowd daemon streams for the
// same request, bit-identically.
func runLocalJSON(w io.Writer, name string, f sweep.Filter) error {
	req := sweep.JobRequest{Scenario: name, Filter: f}
	plan, err := req.Plan()
	if err != nil {
		return err
	}
	// A dead output (full disk, closed pipe) cancels the sweep at the
	// next cell boundary instead of simulating on into the void.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	enc := json.NewEncoder(w)
	var encErr error
	_, err = plan.RunContext(ctx, func(cr *sweep.CellResult) {
		if encErr == nil {
			if encErr = enc.Encode(plan.Record(cr)); encErr != nil {
				cancel()
			}
		}
	})
	if encErr != nil {
		return encErr
	}
	return err
}

// runRemote submits each named scenario to the daemon and consumes its
// streams: cell records (NDJSON verbatim with -json, a generic per-cell
// rendering by default) or, for the report modes, the server-side reduced
// report once the job completes. With -v the daemon's events stream
// replaces the cells stream, so progress percentages arrive live instead
// of by status polling.
func runRemote(remote string, names []string, f sweep.Filter, mode outputMode, verbose bool) error {
	c := &service.Client{Base: remote}
	if verbose {
		// Narrate the client's self-healing (retries, stream resumptions)
		// alongside the progress lines.
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gpowexp: "+format+"\n", args...)
		}
	}
	ctx := context.Background()
	enc := json.NewEncoder(os.Stdout)
	for i, name := range names {
		if i > 0 && mode != modeJSON && mode != modeReportJSON {
			fmt.Println()
		}
		st, err := c.Submit(ctx, sweep.JobRequest{Scenario: name, Filter: f})
		if err != nil {
			return err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "gpowexp: job %s: %s, %d cell(s) in %d timing run(s)\n",
				st.ID, name, st.Cells, st.TimingRuns)
		}

		// Per-cell output (nothing in the report modes — they only care
		// about the finished job's reduction).
		onRecord := func(rec *sweep.CellRecord) error {
			switch mode {
			case modeJSON:
				return enc.Encode(rec)
			case modeDefault:
				printRecord(os.Stdout, rec)
			}
			return nil
		}
		switch {
		case verbose:
			err = c.StreamEvents(ctx, st.ID, func(pr *sweep.Progress) error {
				progressLine(os.Stderr, pr)
				return onRecord(pr.Cell)
			})
		case mode == modeReport || mode == modeReportJSON:
			// No per-cell output wanted: poll the few-hundred-byte status
			// until the job terminates instead of downloading (and
			// discarding) the full cell-record stream.
			err = waitJob(ctx, c, st.ID)
		default:
			err = c.StreamCells(ctx, st.ID, onRecord)
		}
		if err != nil {
			// Don't leave the daemon executing a sweep nobody is reading:
			// best-effort cancel (a no-op if the job already terminated).
			_ = c.Cancel(ctx, st.ID)
			return err
		}
		final, err := c.Job(ctx, st.ID)
		if err != nil {
			return err
		}
		if final.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
		}
		if mode == modeReport || mode == modeReportJSON {
			rep, err := c.Report(ctx, st.ID)
			if err != nil {
				return err
			}
			if mode == modeReportJSON {
				if err := enc.Encode(rep); err != nil {
					return err
				}
			} else if err := sweep.RenderText(os.Stdout, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// waitJob polls a job's status until it reaches a terminal state, backing
// off to one poll per second; context cancellation ends the wait.
func waitJob(ctx context.Context, c *service.Client, id string) error {
	delay := 100 * time.Millisecond
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return err
		}
		switch st.State {
		case service.StateDone, service.StateFailed, service.StateCanceled:
			return nil
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// printRecord renders one wire cell record generically (remote runs have
// no scenario-specific reducer on this side of the wire).
func printRecord(w io.Writer, rec *sweep.CellRecord) {
	fmt.Fprintf(w, "[%d] %s  (%s, group %d)\n", rec.Index, rec.CoordString(), rec.Config, rec.Group)
	for i := range rec.Units {
		u := &rec.Units[i]
		fmt.Fprintf(w, "    %-14s", u.Name)
		if u.Timing != nil {
			fmt.Fprintf(w, " %12d cycles", u.Timing.Cycles)
		}
		if u.Power != nil {
			fmt.Fprintf(w, "  sim %7.2f W (dyn %6.2f, stat %6.2f, dram %6.2f)",
				u.Power.TotalW, u.Power.DynamicW, u.Power.StaticW, u.Power.DRAMW)
		}
		if u.Meas != nil {
			fmt.Fprintf(w, "  meas %7.2f W over %.3f s", u.Meas.AvgPowerW, u.Meas.WindowS)
		}
		fmt.Fprintln(w)
	}
}

// printCacheStats reports the process-wide simulation-result cache counters
// after sweep jobs (the ROADMAP's cache observability item).
func printCacheStats(w io.Writer) {
	fmt.Fprintf(w, "sim-cache: %s\n", simcache.Default().Stats())
}
