package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// faultpoint checks that every declared fault is exercised. The service
// package declares each fault once, as a constant of its Fault type, and
// spells it in a keyed name table (FaultX: "x-name"). The type keeps call
// sites to declared faults, and the daemons refuse an unknown or
// malformed GPUSIMPOW_FAULTPOINT at start-up; neither sees a declared
// fault that nothing arms. A fault counts as exercised when a _test.go
// file names its constant or mentions its name in a string literal, or a
// script under scripts/ mentions its name.

// servicePkg is the package that declares the faults.
const servicePkg = "internal/service"

func runFaultpoint(m *Module) []Finding {
	pass := "faultpoint"
	svc := m.Pkg(servicePkg)
	if svc == nil || svc.Types == nil {
		return []Finding{{Pass: pass, Msg: fmt.Sprintf("no %s package in module %s", servicePkg, m.Path)}}
	}
	tn, ok := svc.Types.Scope().Lookup("Fault").(*types.TypeName)
	if !ok {
		return []Finding{{Pass: pass, Msg: fmt.Sprintf("no Fault type in %s", servicePkg)}}
	}
	var faults []*types.Const // in name order (Scope.Names is sorted)
	for _, n := range svc.Types.Scope().Names() {
		if c, ok := svc.Types.Scope().Lookup(n).(*types.Const); ok && types.Identical(c.Type(), tn.Type()) {
			faults = append(faults, c)
		}
	}
	// Each fault's spec name, from the keyed name table.
	names := map[*types.Const]string{}
	for _, f := range svc.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := svc.Info.Uses[id].(*types.Const)
			if tv := svc.Info.Types[kv.Value]; ok && types.Identical(c.Type(), tn.Type()) && tv.Value != nil && tv.Value.Kind() == constant.String {
				names[c] = constant.StringVal(tv.Value)
			}
			return true
		})
	}

	exercised := map[*types.Const]bool{}
	mentions := func(s string) {
		for _, c := range faults {
			if names[c] != "" && strings.Contains(s, names[c]) {
				exercised[c] = true
			}
		}
	}
	scriptFiles, _ := filepath.Glob(filepath.Join(m.Root, "scripts", "*.sh"))
	sort.Strings(scriptFiles)
	for _, sf := range scriptFiles {
		if body, err := os.ReadFile(sf); err == nil {
			mentions(string(body))
		}
	}
	// Test files are parsed, not type-checked: match constants by name.
	for _, pkg := range m.SortedPkgs() {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					for _, c := range faults {
						if n.Name == c.Name() {
							exercised[c] = true
						}
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING {
						mentions(n.Value)
					}
				}
				return true
			})
		}
	}

	var out []Finding
	for _, c := range faults {
		if !exercised[c] {
			out = append(out, Finding{Pos: m.Fset.Position(c.Pos()), Pass: pass,
				Msg: fmt.Sprintf("fault %s (%q) is declared but no test or script exercises it", c.Name(), names[c])})
		}
	}
	return out
}
