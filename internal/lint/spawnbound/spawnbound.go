// Package spawnbound requires every `go` statement to have a provably
// bounded lifetime: the spawned body (or a function it calls) must be
// WaitGroup-tracked (calls Done, or blocks in Wait on a tracked group)
// or context-cancelled (observes ctx.Done() or ctx.Err() on a path the
// CFG can see). A goroutine with neither is a leak under sustained
// load: the 10k-in-flight engine benchmarks assume every measurement's
// worker count is bounded by the pool, not by accumulation.
//
// `package main` is exempt, matching ctxflow: a command's event loops
// live exactly as long as the process. A deliberate unbounded spawn is
// excused with //revtr:spawnbound <why> on the go statement's line.
package spawnbound

import (
	"go/ast"
	"go/types"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/directive"
	"revtr/internal/lint/flow"
	"revtr/internal/lint/loader"
)

// Analyzer is the spawnbound analyzer.
var Analyzer = &flow.Analyzer{
	Name: "spawnbound",
	Doc:  "every goroutine must be WaitGroup-tracked or ctx-cancelled (provably bounded lifetime)",
	Run:  run,
}

func run(pass *flow.Pass) {
	prog := pass.Prog
	b := &bounder{prog: prog, memo: map[*types.Func]int{}}
	for _, pkg := range prog.Pkgs {
		if pkg.Name == "main" {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if b.goBounded(pkg, g) || prog.Allows(g.Pos(), directive.SpawnBound) {
					return true
				}
				pass.Reportf(g.Pos(),
					"goroutine has no provable lifetime bound (no WaitGroup Done/Wait and no ctx.Done/ctx.Err on any visible path); track it with the pool, a WaitGroup, or a context, or annotate //revtr:spawnbound <why>")
				return true
			})
		}
	}
}

type bounder struct {
	prog *flow.Program
	// memo caches per-function boundedness: 0 unknown, 1 in progress
	// (treated as unbounded for the recursion), 2 bounded, 3 unbounded.
	memo map[*types.Func]int
}

// goBounded reports whether the spawned call's body proves a bound.
func (b *bounder) goBounded(pkg *loader.Package, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return b.bodyBounded(pkg, lit.Body)
	}
	callee := b.prog.Canon(analysis.CalleeFunc(pkg.Info, g.Call))
	if callee == nil {
		return false // a function value: nothing to inspect
	}
	return b.funcBounded(callee)
}

// funcBounded reports whether calling fn reaches a lifetime-bounding
// operation (transitively through the module-local call graph).
func (b *bounder) funcBounded(fn *types.Func) bool {
	if isBoundingFunc(fn) {
		return true
	}
	switch b.memo[fn] {
	case 1, 3:
		return false
	case 2:
		return true
	}
	fi := b.prog.Funcs[fn]
	if fi == nil {
		return false
	}
	b.memo[fn] = 1
	ok := b.bodyBounded(fi.Pkg, fi.Decl.Body)
	if ok {
		b.memo[fn] = 2
	} else {
		b.memo[fn] = 3
	}
	return ok
}

// bodyBounded scans one body for a bounding operation. Nested go
// statements are skipped (each spawn is judged on its own); nested
// function literals are included (a deferred closure's wg.Done tracks
// this goroutine).
func (b *bounder) bodyBounded(pkg *loader.Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := b.prog.Canon(analysis.CalleeFunc(pkg.Info, call))
		if callee == nil {
			return true
		}
		if isBoundingFunc(callee) || (b.prog.Funcs[callee] != nil && b.funcBounded(callee)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isBoundingFunc recognizes the primitive bounding operations:
// (*sync.WaitGroup).Done / Wait and context.Context's Done / Err.
func isBoundingFunc(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sync":
		if fn.Name() != "Done" && fn.Name() != "Wait" {
			return false
		}
		return receiverNamed(fn) == "WaitGroup"
	case "context":
		return fn.Name() == "Done" || fn.Name() == "Err"
	}
	return false
}

func receiverNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
