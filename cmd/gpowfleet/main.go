// Command gpowfleet fronts a fleet of gpowd backends with the same
// /v1/* API a single daemon serves, so clients (gpowexp -remote, the
// service.Client) point at the router and never learn the topology.
//
// Jobs are routed by consistent hashing over the plan's dominant
// timing-group key, so repeats of a scenario land on the backend whose
// simulation cache is already warm. Backends are health-probed and
// breakered (healthy / draining / dead); when one is lost its in-flight
// jobs are re-dispatched to survivors and riding NDJSON streams resume
// where they left off, byte-identically (see docs/FLEET.md).
//
// Usage:
//
//	gpowfleet -backends b0=http://h0:8080,b1=http://h1:8080
//	          [-addr 127.0.0.1:8090] [-state-dir DIR]
//	          [-probe-interval DUR] [-probe-fails N]
//
// Dry-run the routing decision without a fleet:
//
//	gpowfleet -backends b0=...,b1=... -route fig6 [-filter gpu=GT240]
//
// Control a running router:
//
//	gpowfleet -remote http://127.0.0.1:8090 status
//	gpowfleet -remote http://127.0.0.1:8090 drain b0
//	gpowfleet -remote http://127.0.0.1:8090 undrain b0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "gpusimpow/internal/experiments" // registers every scenario
	"gpusimpow/internal/fleet"
	"gpusimpow/internal/sweep"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (port 0 picks a free port)")
	backends := flag.String("backends", "", "comma-separated name=url backend list (names are the ring identity; keep them stable across host moves)")
	stateDir := flag.String("state-dir", "", "journal the routing table here and recover it on restart")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-probe period per backend")
	probeFails := flag.Int("probe-fails", 2, "consecutive probe failures before a backend is marked dead")
	route := flag.String("route", "", "dry-run: print the routing key and ring owner for this scenario, then exit")
	filter := flag.String("filter", "", "cell filter for -route (key=val,...)")
	remote := flag.String("remote", "", "control a running router at this URL instead of serving")
	flag.Parse()

	if *remote != "" {
		if err := ctl(*remote, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "gpowfleet:", err)
			os.Exit(1)
		}
		return
	}

	specs, err := parseBackends(*backends)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpowfleet:", err)
		os.Exit(2)
	}

	if *route != "" {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		var f sweep.Filter
		if *filter != "" {
			if f, err = sweep.ParseFilter(strings.Split(*filter, ",")); err != nil {
				fmt.Fprintln(os.Stderr, "gpowfleet:", err)
				os.Exit(2)
			}
		}
		key, owner, err := fleet.Owner(names, sweep.JobRequest{Scenario: *route, Filter: f})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpowfleet:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\t%s\t%s\n", *route, key, owner)
		return
	}

	opts := fleet.Options{
		Backends:      specs,
		StateDir:      *stateDir,
		ProbeInterval: *probeInterval,
		ProbeFails:    *probeFails,
		Logf:          log.Printf,
	}
	if err := run(*addr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "gpowfleet:", err)
		os.Exit(1)
	}
}

// parseBackends parses "name=url,name=url". Every backend needs an
// explicit name: names are the consistent-hash identity, and deriving
// them from URLs would reshuffle the ring whenever a backend moved hosts.
func parseBackends(s string) ([]fleet.BackendSpec, error) {
	if s == "" {
		return nil, fmt.Errorf("-backends is required (name=url,name=url,...)")
	}
	var specs []fleet.BackendSpec
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad backend %q, want name=url", part)
		}
		specs = append(specs, fleet.BackendSpec{Name: name, URL: url})
	}
	return specs, nil
}

func run(addr string, opts fleet.Options) error {
	rt, err := fleet.NewRouter(opts)
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("gpowfleet: listening on http://%s", ln.Addr())

	srv := &http.Server{Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("gpowfleet: %v, shutting down", sig)
		// The backends own the jobs; the router only needs to stop
		// serving and compact its routing table (rt.Close via defer).
		_ = srv.Close()
		return nil
	case err := <-errc:
		return err
	}
}

// ctl drives a running router's /v1/fleet API.
func ctl(base string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gpowfleet -remote URL status|drain NAME|undrain NAME")
	}
	base = strings.TrimRight(base, "/")
	switch args[0] {
	case "status":
		resp, err := http.Get(base + "/v1/fleet")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		var st fleet.FleetStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		for _, b := range st.Backends {
			fmt.Printf("%s\t%s\t%s\tqueued=%d running=%d jobs=%d\n",
				b.Name, b.State, b.URL, b.Queued, b.Running, b.Jobs)
		}
		for _, a := range st.Assignments {
			fmt.Printf("%s\t%s\ton %s (%s)\n", a.ID, a.Scenario, a.Backend, a.BackendID)
		}
		return nil
	case "drain", "undrain":
		if len(args) != 2 {
			return fmt.Errorf("usage: gpowfleet -remote URL %s NAME", args[0])
		}
		resp, err := http.Post(base+"/v1/fleet/backends/"+args[1]+"/"+args[0], "", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		fmt.Println(strings.TrimSpace(string(body)))
		return nil
	default:
		return fmt.Errorf("unknown command %q (want status|drain|undrain)", args[0])
	}
}
