// Package detpath enforces the determinism contract: the simulation and
// measurement packages must be bit-identical at any worker count (the
// PR 2 probe-layer guarantee) and under any map iteration order.
//
// Three rules:
//
//  1. Wall clock (all non-test packages): calls to time.Now and
//     time.Since are forbidden — virtual time comes from measure.Clock.
//     Intentional wall-clock observability sites (HTTP latency, CLI
//     progress) carry a //revtr:wallclock <why> directive.
//  2. Global math/rand (deterministic packages): package-level draws
//     (rand.Intn, rand.Perm, …) read the process-wide source and are
//     forbidden; construct a seeded stream (detrand.New / rand.New)
//     instead.
//  3. Map ranges (deterministic packages): ranging over a map whose
//     body feeds replies, counters, or output is forbidden unless the
//     collected keys are sorted afterwards in the same function, or the
//     loop carries a //revtr:unordered <why> directive. The analyzer
//     whitelists provably commutative bodies (integer accumulation, map
//     writes, deletes, boolean flags) and flags order-sensitive sinks:
//     appends that are never sorted, prints/writes, channel sends,
//     returns, string/float accumulation, and plain assignments to
//     variables declared outside the loop.
package detpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/directive"
	"revtr/internal/lint/flow"
)

// deterministicPrefixes lists the packages under the determinism
// contract (DESIGN.md "Determinism contract and static enforcement").
// A path matches if it equals a prefix or extends it with "/".
var deterministicPrefixes = []string{
	"revtr/internal/netsim",
	"revtr/internal/measure",
	"revtr/internal/probe",
	"revtr/internal/core",
	"revtr/internal/ttlcache",
	"revtr/internal/campaign",
	"revtr/internal/eval",
	"revtr/internal/ingress",
	"revtr/internal/vantage",
	"revtr/internal/alias",
	"revtr/internal/atlas",
	"revtr/internal/ip2as",
	"revtr/internal/detrand",
}

// IsDeterministic reports whether the package at path is under the
// determinism contract. Lint testdata packages under a det* directory
// opt in, so the analyzer's own tests exercise both modes.
func IsDeterministic(path string) bool {
	for _, p := range deterministicPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return strings.Contains(path, "/testdata/src/det")
}

// Analyzer is the detpath analyzer.
var Analyzer = &flow.Analyzer{
	Name: "detpath",
	Doc:  "forbid wall-clock reads, global math/rand, and unsorted map ranges in deterministic packages",
	Run:  run,
}

func run(pass *flow.Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		det := IsDeterministic(pkg.PkgPath)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, pkg.Info, det, n)
				case *ast.RangeStmt:
					if det {
						checkMapRange(pass, pkg.Info, f, n)
					}
				}
				return true
			})
		}
	}
}

func checkCall(pass *flow.Pass, info *types.Info, det bool, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			if !pass.Prog.Allows(call.Pos(), directive.Wallclock) {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock and breaks virtual-time determinism; use the deployment's measure.Clock, or annotate //revtr:wallclock <why> if this is intentional observability", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		if !det {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return // methods on *rand.Rand are seeded streams, fine
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return // constructors build seeded streams
		}
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the process-wide seed and breaks run-to-run determinism; derive a seeded stream with detrand.New", fn.Pkg().Path(), fn.Name())
	}
}

// checkMapRange flags order-sensitive iteration over a map.
func checkMapRange(pass *flow.Pass, info *types.Info, file *ast.File, rs *ast.RangeStmt) {
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Prog.Allows(rs.Pos(), directive.Unordered) {
		return
	}
	fn := enclosingFunc(file, rs.Pos())
	if why := orderSensitive(info, fn, rs); why != "" {
		pass.Reportf(rs.Pos(),
			"range over map %s is order-sensitive (%s): map iteration order is randomized, breaking bit-identical replies/counters/output; sort the keys first or annotate //revtr:unordered <why>",
			types.ExprString(rs.X), why)
	}
}

// enclosingFunc returns the innermost function body containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return n == file
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		return true
	})
	return body
}

// orderSensitive classifies the loop body; it returns a short reason if
// the body observably depends on iteration order, or "" if every
// statement is commutative.
func orderSensitive(info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt) string {
	reason := ""
	depth := 0 // FuncLit nesting inside the loop body
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(n.Body, visit)
			depth--
			return false
		case *ast.ReturnStmt:
			if depth == 0 {
				reason = "returns from inside the loop"
			}
			return false
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.CallExpr:
			if why := sinkCall(info, n); why != "" {
				reason = why
				return false
			}
		case *ast.IncDecStmt:
			return false // x++ / x-- commute
		case *ast.AssignStmt:
			if why := assignSensitive(info, fnBody, rs, n); why != "" {
				reason = why
				return false
			}
		}
		return true
	}
	ast.Inspect(rs.Body, visit)
	return reason
}

// sinkCall reports calls that emit in iteration order.
func sinkCall(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if strings.HasPrefix(sel.Sel.Name, "Write") {
			return "writes output via " + sel.Sel.Name
		}
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			return "prints via fmt." + fn.Name()
		}
	case "io":
		if fn.Name() == "WriteString" {
			return "writes output via io.WriteString"
		}
	}
	return ""
}

// assignSensitive classifies one assignment inside the loop body.
func assignSensitive(info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt) string {
	if as.Tok == token.DEFINE {
		return "" // new locals are per-iteration
	}
	for i, lhs := range as.Lhs {
		lhs = ast.Unparen(lhs)
		// Writes through an index (m2[k] = v, out[i] = v) hit distinct
		// cells per distinct key and commute.
		if _, ok := lhs.(*ast.IndexExpr); ok {
			continue
		}
		target, outside := outsideLoop(info, rs, lhs)
		if !outside {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		switch as.Tok {
		case token.ASSIGN:
			if isAppend(rhs) {
				if !sortedLater(info, fnBody, rs, target) {
					return "appends to " + target + " without sorting it afterwards"
				}
				continue
			}
			if rhs != nil {
				if tv, ok := info.Types[rhs]; ok && tv.Value != nil {
					continue // x = <constant> converges regardless of order
				}
			}
			return "assigns " + target + " (declared outside the loop) in iteration order"
		case token.ADD_ASSIGN:
			if rhs != nil {
				if tv, ok := info.Types[rhs]; ok {
					switch b := tv.Type.Underlying().(type) {
					case *types.Basic:
						if b.Info()&types.IsInteger != 0 {
							continue // integer += commutes exactly
						}
						if b.Info()&types.IsString != 0 {
							return "concatenates onto " + target + " in iteration order"
						}
						if b.Info()&types.IsFloat != 0 || b.Info()&types.IsComplex != 0 {
							return "accumulates floating point into " + target + " (float addition is order-sensitive at the bit level)"
						}
					}
				}
			}
			continue
		case token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			continue // commutative on integers; strings/floats don't support these
		default:
			return "updates " + target + " with non-commutative " + as.Tok.String()
		}
	}
	return ""
}

// outsideLoop reports whether lhs names a variable declared outside the
// range statement, and renders it for messages.
func outsideLoop(info *types.Info, rs *ast.RangeStmt, lhs ast.Expr) (string, bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return "", false
		}
		obj := info.ObjectOf(l)
		if obj == nil {
			return l.Name, true
		}
		return l.Name, obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
	case *ast.SelectorExpr:
		return types.ExprString(l), true // fields persist beyond the loop
	case *ast.StarExpr:
		return types.ExprString(l), true
	}
	return types.ExprString(lhs), true
}

func isAppend(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedLater reports whether target is passed to a sort.* / slices.*
// call after the range statement within the same function body — the
// collect-keys-then-sort idiom.
func sortedLater(info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt, target string) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(ast.Unparen(arg)) == target {
				found = true
			}
		}
		return true
	})
	return found
}
