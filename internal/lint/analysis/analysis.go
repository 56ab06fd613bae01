// Package analysis holds what every revtr-lint analyzer shares below
// the flow layer: the Finding an analyzer reports and the go/ast +
// go/types helpers for resolving calls. The container this repo builds
// in has no module proxy access, so the suite is grown from the standard
// library instead of golang.org/x/tools/go/analysis (flow.Analyzer is
// the analyzer shape).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one rendered diagnostic, ready for printing or comparison.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// SortFindings orders findings by file, line, column, then analyzer, so
// suite output is deterministic (the lint tool practices what it
// preaches).
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function values, builtins, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether fn is the named package-level function (or
// method, when fn has a receiver) of the package with the given path.
func IsPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
