package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the pass that produced it, and a
// message. Warnings print but do not fail the lint.
type Finding struct {
	Pos     token.Position
	Pass    string
	Warning bool
	Msg     string
}

// String renders the finding in go vet style, with the file path relative
// to root when possible.
func (f *Finding) String(root string) string {
	file := f.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	sev := ""
	if f.Warning {
		sev = "warning: "
	}
	return fmt.Sprintf("%s:%d:%d: %s%s [%s]", file, f.Pos.Line, f.Pos.Column, sev, f.Msg, f.Pass)
}

// Pass is one analyzer: it inspects the loaded module and reports findings.
type Pass struct {
	Name string
	Doc  string
	Run  func(m *Module) []Finding
}

// Passes returns every registered pass, in documentation order.
func Passes() []Pass {
	return []Pass{
		{Name: "timingpartition", Doc: "config.GPU fields the simulator reads must be encoded in appendTimingFields (or declared timing-neutral)", Run: runTimingPartition},
		{Name: "detrange", Doc: "no map-ordered iteration in the deterministic packages without a sort or an explicit waiver", Run: runDetRange},
		{Name: "nowallclock", Doc: "no wall-clock or global math/rand reads in the deterministic packages", Run: runNoWallClock},
		{Name: "wirejson", Doc: "every exported field reaching encoding/json in the wire packages carries a json tag", Run: runWireJSON},
		{Name: "faultpoint", Doc: "every declared fault is exercised by a test or a script", Run: runFaultpoint},
	}
}

// Run loads the module at root and executes the selected passes (all when
// names is empty). Findings come back sorted by position then message.
func Run(root string, names []string) ([]Finding, error) {
	m, err := Load(root)
	if err != nil {
		return nil, err
	}
	sel := map[string]bool{}
	for _, n := range names {
		sel[n] = true
	}
	var out []Finding
	for _, p := range Passes() {
		if len(sel) > 0 && !sel[p.Name] {
			continue
		}
		out = append(out, p.Run(m)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Msg < b.Msg
	})
	return out, nil
}

// deterministicPkgs are the module-relative package prefixes whose results
// must be bit-reproducible: everything feeding the simcache key, the sweep
// records or the golden reports. service, fleet and hw are exempt by design
// (they deal in wall-clock time and seeded noise streams on purpose).
var deterministicPkgs = []string{
	"internal/sim",
	"internal/core",
	"internal/power",
	"internal/sweep",
	"internal/experiments",
	"internal/kernel",
}

// inDeterministicPkg reports whether the package is in the enforced set
// (prefix match covers subpackages like internal/sim/cache).
func inDeterministicPkg(rel string) bool {
	for _, p := range deterministicPkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// lineDirectives collects "//gpowlint:<verb>" comment directives of one
// file, keyed by the line they apply to: a directive applies to its own
// line (trailing comment) and, when it stands alone, to the next line.
func lineDirectives(fset *token.FileSet, f *ast.File) map[int][]string {
	out := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "gpowlint:") {
				continue
			}
			verb := strings.Fields(strings.TrimPrefix(text, "gpowlint:"))
			if len(verb) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], verb[0])
			out[line+1] = append(out[line+1], verb[0])
		}
	}
	return out
}

// hasDirective reports whether the line (or the line above) carries the
// given gpowlint directive in the file.
func hasDirective(dirs map[int][]string, line int, verb string) bool {
	for _, v := range dirs[line] {
		if v == verb {
			return true
		}
	}
	return false
}
