// Package ctxflow enforces the context contract established in PR 2:
// cancellation flows from the caller down through every layer that
// issues probes or blocks. Three rules, applied to every non-main,
// non-test package:
//
//  1. An exported function or method that takes a context.Context must
//     take it as the first parameter.
//
//  2. An exported function or method that issues context-aware work
//     (calls anything whose first parameter is a context.Context) or
//     blocks (channel operations, select, sync.WaitGroup.Wait,
//     sync.Cond.Wait, time.Sleep) must itself take a context.Context.
//
//  3. context.Background() and context.TODO() must not be synthesized
//     outside package main and tests: minting a fresh context severs
//     the caller's cancellation. There is no exception — contexts are
//     never nil, so no API boundary normalizes one.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/flow"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &flow.Analyzer{
	Name: "ctxflow",
	Doc:  "exported probe-issuing/blocking functions take ctx first; context.Background only in main and tests",
	Run:  run,
}

func run(pass *flow.Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkSignature(pass, pkg.Info, fd)
			}
			checkBackground(pass, pkg.Info, f)
		}
	}
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// exported reports whether fd is part of the package's exported API
// (exported name; for methods, an exported receiver type too).
func exported(info *types.Info, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Exported()
	}
	return true
}

func checkSignature(pass *flow.Pass, info *types.Info, fd *ast.FuncDecl) {
	if !exported(info, fd) {
		return
	}
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	sig := obj.Type().(*types.Signature)
	params := sig.Params()
	hasCtx := false
	for i := 0; i < params.Len(); i++ {
		if isContext(params.At(i).Type()) {
			hasCtx = true
			if i != 0 {
				pass.Reportf(fd.Name.Pos(),
					"exported %s takes context.Context as parameter %d; the context contract requires it first", fd.Name.Name, i+1)
			}
		}
	}
	if hasCtx {
		return
	}
	if why := issuesOrBlocks(info, fd.Body); why != "" {
		pass.Reportf(fd.Name.Pos(),
			"exported %s %s but takes no context.Context; add ctx as the first parameter so callers can cancel it", fd.Name.Name, why)
	}
}

// issuesOrBlocks scans the body for probe-issuing calls (any callee whose
// first parameter is a context.Context, at any closure depth — work
// started in a goroutine still needs the caller's context) and for
// direct blocking operations (top level only: blocking inside a spawned
// goroutine does not block the exported caller).
func issuesOrBlocks(info *types.Info, body *ast.BlockStmt) string {
	why := ""
	depth := 0
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(n.Body, visit)
			depth--
			return false
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, n); fn != nil {
				if analysis.IsPkgFunc(fn, "time", "Sleep") {
					if depth == 0 {
						why = "blocks (time.Sleep)"
					}
					return true
				}
				if analysis.IsPkgFunc(fn, "sync", "Wait") {
					if depth == 0 {
						why = "blocks (sync." + recvTypeName(fn) + ".Wait)"
					}
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok {
					if p := sig.Params(); p.Len() > 0 && isContext(p.At(0).Type()) {
						why = "issues context-aware work (calls " + fn.Name() + ")"
					}
				}
			}
		case *ast.SendStmt:
			if depth == 0 {
				why = "blocks (channel send)"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && depth == 0 {
				why = "blocks (channel receive)"
			}
		case *ast.SelectStmt:
			if depth == 0 {
				why = "blocks (select)"
			}
		}
		return true
	}
	ast.Inspect(body, visit)
	return why
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// checkBackground flags every context.Background()/TODO() synthesis.
func checkBackground(pass *flow.Pass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := analysis.CalleeFunc(info, call); analysis.IsPkgFunc(fn, "context", "Background", "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s() synthesized outside main/tests severs the caller's cancellation; thread the caller's ctx through", fn.Name())
			}
		}
		return true
	})
}
