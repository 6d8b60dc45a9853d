package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gpusimpow/internal/sweep"
)

// expectations pin what a correct run produces. They are deterministic:
// a change that only makes the program faster leaves every one of them
// bit-identical. Regenerate with `go test -run TestSmoke -update`.
type expectations struct {
	// SimSuite is one sim-suite pass: launches, simulated cycles and warp
	// instructions over both GPUs.
	SimSuite suiteCounts `json:"sim_suite"`
	// Scenarios maps a scenario name to the sha256 of its NDJSON cell
	// record stream.
	Scenarios map[string]string `json:"scenario_sha256"`
	// Fig6ErrPct is Figure 6's average relative error per GPU.
	Fig6ErrPct map[string]float64 `json:"fig6_err_pct"`
}

type suiteCounts struct {
	Launches   int    `json:"launches"`
	Cycles     uint64 `json:"cycles"`
	WarpInstrs uint64 `json:"warp_instrs"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// expected is the pinned expectation set.
var expected = func() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("benchmark: testdata/expected.json: %v", err))
	}
	return e
}()

// recordStream is the NDJSON form of a record list, as the service streams
// it.
func recordStream(recs []*sweep.CellRecord) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// fig6Errors reads each sub-figure's average relative error from a fig6
// report: the first note of each section carries it as a typed datum.
func fig6Errors(rep *sweep.Report) (map[string]float64, error) {
	out := map[string]float64{}
	for _, sec := range rep.Sections {
		for _, gpu := range []string{"GT240", "GTX580"} {
			if !strings.HasSuffix(sec.Title, ", "+gpu) {
				continue
			}
			if len(sec.Notes) == 0 || len(sec.Notes[0].Args) == 0 || sec.Notes[0].Args[0].F == nil ||
				!strings.HasPrefix(sec.Notes[0].Format, "average relative error") {
				return nil, fmt.Errorf("fig6 report section %q has no average-error datum", sec.Title)
			}
			out[gpu] = *sec.Notes[0].Args[0].F
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fig6 report has no sub-figure")
	}
	return out, nil
}

// checkFig6 records the report's errors and compares them with the pinned
// values.
func (r *runCtx) checkFig6(rep *sweep.Report) {
	errs, err := fig6Errors(rep)
	if err != nil {
		r.fail("%v", err)
		return
	}
	for gpu, e := range errs {
		r.fig6[gpu] = e
		r.observed.Fig6ErrPct[gpu] = e
		if want, ok := expected.Fig6ErrPct[gpu]; !ok || want != e {
			r.fail("fig6 %s average relative error %v, want %v", gpu, e, want)
		}
	}
}

// checkScenario compares a scenario's record stream with its pinned hash.
func (r *runCtx) checkScenario(name string, recs []*sweep.CellRecord) {
	stream, err := recordStream(recs)
	if err != nil {
		r.fail("%s: encoding records: %v", name, err)
		return
	}
	got := sha256Hex(stream)
	r.observed.Scenarios[name] = got
	if want := expected.Scenarios[name]; got != want {
		r.fail("%s: record stream sha256 %s, want %s", name, got, want)
	}
}
