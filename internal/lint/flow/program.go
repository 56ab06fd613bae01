// Package flow is the lint suite's framework: the one Analyzer/Pass
// shape every check has, run over a module-wide view of every loaded
// package (Program) with its parsed //revtr: directives, plus the
// flow-aware layer the concurrency analyzers (lockorder, suspendsafe,
// spawnbound) consume — a statement-level intraprocedural CFG
// (BuildCFG), a module-local call graph, and a may-held lock/ticket
// dataflow (LockFacts). The per-package checks (detpath, ctxflow,
// obsnames, locksafe) loop Program.Pkgs.
//
// Two //revtr: directives make the static graphs match the dynamic
// ones:
//
//   - //revtr:calls pkgpath.Func (or pkgpath.Type.Method) on a call line
//     declares the target of an indirect call — a function-typed field
//     or interface the resolver cannot see through. The sched layer uses
//     it to declare that s.opts.TryCharge lands in the service registry,
//     which is exactly the cross-package edge the lock-order graph must
//     know about.
//   - //revtr:suspends <why> on a function or interface-method
//     declaration marks it as a suspension point: calling it may park
//     the measurement (probe pool async submission, the engine's
//     resumable machine). suspendsafe propagates the mark up the call
//     graph.
//
// The call graph is goroutine-local by construction: `go` statement
// subtrees are excluded, because work launched on another goroutine
// neither holds the caller's locks nor suspends the caller. Non-go
// function literals (deferred closures, inline callbacks) are included
// conservatively.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/directive"
	"revtr/internal/lint/loader"
)

// FuncInfo is one module function with a body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *loader.Package
}

// Program is the module-wide analysis context: every loaded package,
// indexed functions, parsed directives, and memoized per-function facts.
type Program struct {
	Fset *token.FileSet
	Pkgs []*loader.Package
	// Funcs indexes every function declared with a body in the loaded
	// packages.
	Funcs map[*types.Func]*FuncInfo

	dirs   *directive.Map
	byName map[string]*types.Func
	calls  map[*types.Func][]*types.Func
	facts  map[*types.Func]*LockFacts
}

// BuildProgram assembles the module view from one loader.Load result.
// All packages must share one FileSet (loader.Load guarantees this for
// a single call).
func BuildProgram(pkgs []*loader.Package) *Program {
	p := &Program{
		Funcs:  map[*types.Func]*FuncInfo{},
		byName: map[string]*types.Func{},
		calls:  map[*types.Func][]*types.Func{},
		facts:  map[*types.Func]*LockFacts{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	p.Pkgs = pkgs
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.Funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				if key := FuncKey(fn); key != "" && p.byName[key] == nil {
					p.byName[key] = fn
				}
			}
			// Index interface methods too: a cross-package call resolves
			// to the importer's object, and Canon must be able to map it
			// back to the source-checked one //revtr:suspends seeds use.
			ast.Inspect(f, func(n ast.Node) bool {
				it, ok := n.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, field := range it.Methods.List {
					for _, name := range field.Names {
						if fn, ok := pkg.Info.Defs[name].(*types.Func); ok {
							if key := FuncKey(fn); key != "" && p.byName[key] == nil {
								p.byName[key] = fn
							}
						}
					}
				}
				return true
			})
		}
	}
	p.dirs = directive.Parse(p.Fset, files)
	return p
}

// Canon maps fn to the source-checked object for the same function, if
// the declaring package is loaded. The type checker materializes a
// DISTINCT *types.Func for an imported function (built from export
// data), so cross-package call facts would never match the Funcs index
// without this.
func (p *Program) Canon(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	if p.Funcs[fn] != nil {
		return fn
	}
	if canon := p.byName[FuncKey(fn)]; canon != nil {
		return canon
	}
	return fn
}

// FuncKey renders fn as the //revtr:calls target grammar:
// pkgpath.Func for package functions, pkgpath.Type.Method for methods
// (pointer receivers are spelled like value receivers). Empty for
// functions outside any package.
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// SortedFuncs returns every indexed function in source-position order,
// so analyzers iterating the module produce deterministic output.
func (p *Program) SortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(p.Funcs))
	for _, fi := range p.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := p.Fset.Position(out[i].Decl.Pos()), p.Fset.Position(out[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// Allows reports whether a directive of the given kind is attached to
// pos (directive.Map.At has the placement rule).
func (p *Program) Allows(pos token.Pos, kind string) bool {
	return p.dirs.Allows(p.Fset, pos, kind)
}

// DeclaredCallees resolves the //revtr:calls directives attached to a
// call at pos. Targets that do not resolve in the loaded package set are
// dropped (partial loads — linting one package — must not fail on
// declarations about packages that are not in view).
func (p *Program) DeclaredCallees(pos token.Pos) []*types.Func {
	var out []*types.Func
	for _, d := range p.dirs.At(p.Fset, pos, directive.Calls) {
		if fn := p.byName[d.Justification]; fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

// Callees returns fn's module-local, goroutine-local callees in first-
// call order: static calls resolved by the type checker plus targets
// declared with //revtr:calls. `go` statement subtrees are excluded;
// non-go function literals are included. Results are memoized.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	if out, ok := p.calls[fn]; ok {
		return out
	}
	fi := p.Funcs[fn]
	if fi == nil {
		p.calls[fn] = nil
		return nil
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	add := func(callee *types.Func) {
		if callee == nil || seen[callee] {
			return
		}
		seen[callee] = true
		out = append(out, callee)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if callee := analysis.CalleeFunc(fi.Pkg.Info, n); callee != nil {
				add(p.Canon(callee))
			}
			for _, callee := range p.DeclaredCallees(n.Pos()) {
				add(callee)
			}
		}
		return true
	})
	p.calls[fn] = out
	return out
}

// SuspendSeeds returns the functions and interface methods declared as
// suspension points with //revtr:suspends.
func (p *Program) SuspendSeeds() map[*types.Func]bool {
	seeds := map[*types.Func]bool{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if p.Allows(n.Pos(), directive.Suspends) {
						if fn, ok := pkg.Info.Defs[n.Name].(*types.Func); ok {
							seeds[fn] = true
						}
					}
				case *ast.InterfaceType:
					for _, field := range n.Methods.List {
						if len(field.Names) == 0 {
							continue // embedded interface
						}
						if p.Allows(field.Pos(), directive.Suspends) {
							if fn, ok := pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
								seeds[fn] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return seeds
}

// Analyzer is one named static check over the whole Program. Lock
// order and suspension safety are properties of cross-package call
// chains; a check that judges one package at a time loops Prog.Pkgs.
type Analyzer struct {
	// Name identifies the analyzer in findings (e.g. "detpath").
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects the program and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries the Program through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings *[]analysis.Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, analysis.Finding{
		Position: p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run runs the analyzers over the program in order and returns the
// sorted findings. Malformed //revtr: directives are reported here, once,
// from the program's one directive parse, whichever analyzers run.
func (p *Program) Run(analyzers ...*Analyzer) []analysis.Finding {
	var findings []analysis.Finding
	for _, pr := range p.dirs.Problems() {
		findings = append(findings, analysis.Finding{Position: p.Fset.Position(pr.Pos), Analyzer: "directive", Message: pr.Message})
	}
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Prog: p, findings: &findings})
	}
	analysis.SortFindings(findings)
	return findings
}
