package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// RenderText's formatting contract: column formats for data cells, head
// formats for the label row, single-space joins, indent, gap lines, typed
// notes.
func TestRenderText(t *testing.T) {
	rep := &Report{
		Scenario: "probe",
		Sections: []Section{
			{
				Title:  "Probe table",
				Indent: "  ",
				Columns: []Column{
					{Label: "Variant", Format: "%-8s"},
					{Label: "Cycles", Unit: "cycles", Format: "%6d", Head: "%6s"},
					{Label: "Power", Unit: "W", Format: "%5.2f", Head: "%5s"},
					{Label: "Hit", Unit: "%", Format: "%4.1f%%", Head: "%5s"},
				},
				Header: true,
				Rows: [][]Datum{
					{Str("base"), Uint(1200), Num(17.5), Num(93.25)},
					{Str("nol2"), Uint(3400), Num(18), Num(0)},
				},
				Notes: []Note{Notef("best variant: %s (%.2f W)", Str("base"), Num(17.5))},
			},
			{
				Gap:   true,
				Title: "Second section",
				Notes: []Note{Notef("no arguments here")},
			},
		},
	}
	var buf bytes.Buffer
	if err := RenderText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "Probe table\n" +
		"  Variant  Cycles Power   Hit\n" +
		"  base       1200 17.50 93.2%\n" +
		"  nol2       3400 18.00  0.0%\n" +
		"best variant: base (17.50 W)\n" +
		"\n" +
		"Second section\n" +
		"no arguments here\n"
	if got := buf.String(); got != want {
		t.Errorf("rendered text:\n got %q\nwant %q", got, want)
	}
}

func TestRenderTextRowArityMismatch(t *testing.T) {
	rep := &Report{Sections: []Section{{
		Columns: []Column{{Label: "a", Format: "%s"}},
		Rows:    [][]Datum{{Str("x"), Str("y")}},
	}}}
	if err := RenderText(io.Discard, rep); err == nil {
		t.Error("row/column arity mismatch should error")
	}
}

// The wire contract of a Report: a JSON round trip reconstructs the exact
// value (floats via shortest round-trip encoding, uint64 via typed decode,
// empty fields omitted), so reflect.DeepEqual across the service boundary
// is a bitwise comparison.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Scenario: "probe",
		Sections: []Section{
			{
				Title:   "t",
				Columns: []Column{{Label: "x", Unit: "W", Format: "%7.3f", Head: "%7s"}},
				Header:  true,
				Rows:    [][]Datum{{Num(1.0 / 3.0)}, {Num(0)}, {Uint(1<<53 + 1)}},
				Notes:   []Note{Notef("n %g", Num(2.718281828459045))},
			},
			{Gap: true, Title: "only title"},
		},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, rep) {
		t.Errorf("report did not survive the JSON round trip:\n got %#v\nwant %#v", &got, rep)
	}
}

// RunScenario prints a scenario's reduction through RenderText;
// BuildReport feeds the reducer the run's records.
func TestRegisterDerivedPrint(t *testing.T) {
	Register(Scenario{
		Name: "reduceprobe", Title: "registry-derived print probe",
		Reduce: func(recs []*CellRecord, f Filter) (*Report, error) {
			return &Report{
				Scenario: "reduceprobe",
				Sections: []Section{{Notes: []Note{Notef("reduced %d record(s)", Uint(uint64(len(recs))))}}},
			}, nil
		},
	})
	var buf bytes.Buffer
	if err := RunScenario(&buf, "reduceprobe", nil); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "reduced 0 record(s)\n"; got != want {
		t.Errorf("derived print rendered %q, want %q", got, want)
	}
	if _, err := BuildReport("no-such-scenario", nil); err == nil {
		t.Error("BuildReport on an unknown scenario should error")
	}
	if _, err := BuildReport("reduceprobe", Filter{"axis": {"v"}}); err == nil {
		t.Error("filtering a non-sweep report should error")
	}
}

// Every scenario reduces: a registration without Reduce is a programming
// error.
func TestRegisterRequiresReduce(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering a scenario without Reduce should panic")
		}
	}()
	Register(Scenario{Name: "noreduce", Spec: func() *Spec { return runSpec(2002) }})
}

// Scenario.CheckFilter gates both report building and job planning before
// any sweep executes.
func TestCheckFilterGatesEarly(t *testing.T) {
	reject := errors.New("filter rejected by scenario")
	Register(Scenario{
		Name: "checkprobe", Title: "CheckFilter probe",
		Reduce: func([]*CellRecord, Filter) (*Report, error) {
			return &Report{Scenario: "checkprobe"}, nil
		},
		CheckFilter: func(f Filter) error {
			if len(f) > 0 {
				return reject
			}
			return nil
		},
	})
	if _, err := BuildReport("checkprobe", Filter{"axis": {"v"}}); !errors.Is(err, reject) {
		t.Errorf("BuildReport bypassed CheckFilter: %v", err)
	}
	if _, err := BuildReport("checkprobe", nil); err != nil {
		t.Errorf("empty filter should pass: %v", err)
	}
	// JobRequest.Plan's submit-time gate is covered end to end by the
	// service tests (fig6/energyperop submissions).
}
