// Package obsnames enforces the metrics contract of internal/obs:
// metric names passed to Registry.Counter / Registry.Gauge /
// Registry.Histogram (and the base name passed to obs.Label) must be
// compile-time string constants matching
//
//	^[a-z][a-z0-9_]*(_total|_seconds|_bytes)?$
//
// and each plain (unlabelled) name must be registered from exactly one
// callsite per package — duplicated registration literals drift apart
// silently; hoist the handle and share it. Label-wrapped names are
// exempt from the single-callsite rule because the label values vary at
// runtime, but their base name is validated the same way.
package obsnames

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/flow"
	"revtr/internal/lint/loader"
)

const obsPath = "revtr/internal/obs"

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(_total|_seconds|_bytes)?$`)

// Analyzer is the obsnames analyzer.
var Analyzer = &flow.Analyzer{
	Name: "obsnames",
	Doc:  "obs metric names are compile-time constants, snake_case, and registered once per package",
	Run:  run,
}

func run(pass *flow.Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		checkPackage(pass, pkg)
	}
}

func checkPackage(pass *flow.Pass, pkg *loader.Package) {
	type site struct {
		pos  token.Pos
		kind string
	}
	registered := map[string][]site{} // metric name -> registration sites

	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := analysis.CalleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			isMethod := sig != nil && sig.Recv() != nil
			switch {
			case isMethod && (fn.Name() == "Counter" || fn.Name() == "Gauge" || fn.Name() == "Histogram"):
				arg := ast.Unparen(call.Args[0])
				if inner, ok := arg.(*ast.CallExpr); ok {
					if lf := analysis.CalleeFunc(pkg.Info, inner); analysis.IsPkgFunc(lf, obsPath, "Label") {
						return true // obs.Label call: validated on its own visit
					}
				}
				name, ok := constName(pass, pkg.Info, call, arg, fn.Name())
				if ok {
					registered[name] = append(registered[name], site{call.Pos(), fn.Name()})
				}
			case !isMethod && fn.Name() == "Label":
				constName(pass, pkg.Info, call, ast.Unparen(call.Args[0]), "Label")
			}
			return true
		})
	}

	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := registered[name]
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		first := pkg.Fset.Position(sites[0].pos)
		for _, s := range sites[1:] {
			pass.Reportf(s.pos,
				"metric %q is already registered in this package at %s:%d; register it once and share the *obs.%s handle",
				name, first.Filename, first.Line, s.kind)
		}
	}
}

// constName validates the metric-name argument and returns its constant
// value. It reports a diagnostic (and returns ok=false) for non-constant
// names and names that fail the grammar.
func constName(pass *flow.Pass, info *types.Info, call *ast.CallExpr, arg ast.Expr, accessor string) (string, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(call.Pos(),
			"metric name passed to obs %s must be a compile-time string constant so the metric namespace is auditable statically", accessor)
		return "", false
	}
	name := constant.StringVal(tv.Value)
	if !nameRE.MatchString(name) {
		pass.Reportf(call.Pos(),
			"metric name %q does not match the metrics contract %s", name, nameRE.String())
		return "", false
	}
	return name, true
}
