// Package locksafe extends `go vet copylocks` with three repo-specific
// mutex-hygiene checks:
//
//  1. Escaped critical sections: a function that calls mu.Lock() (or
//     RLock) without a deferred unlock must unlock on every return path.
//     The analyzer flags any return statement reachable between a Lock
//     and its matching Unlock with no intervening Unlock — the shape
//     that leaks a held mutex when an early return (or a newly added
//     one) sneaks into a manually bracketed critical section.
//  2. Guard leaks: a method of a struct that embeds or declares a
//     sync.Mutex/RWMutex must not return a pointer to one of the
//     struct's other fields — handing out &s.field lets callers mutate
//     guarded state without the lock.
//  3. No TryLock/TryRLock: nothing in the tree uses them, so none of the
//     three lock analyses (lockorder, suspendsafe, this one) models a
//     conditional acquisition; a call is a finding rather than a lock
//     the suite silently does not see.
//
// Check 1 counts holds per lock and mode, walks closures as bodies of
// their own and must see every release; flow.LockFacts is may-held,
// mode-merged and treats closures as opaque, for ordering. They answer
// different questions, so they stay two analyses over one resolver of
// sync methods (flow.MutexMethod).
//
// The analysis is linear over source positions, not path-sensitive: the
// manual unlock-before-every-return idiom passes, and conditional locks
// may rarely over-report — prefer defer, which is also faster to reason
// about in review.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"revtr/internal/lint/flow"
	"revtr/internal/lint/loader"
)

// Analyzer is the locksafe analyzer.
var Analyzer = &flow.Analyzer{
	Name: "locksafe",
	Doc:  "returns must not escape held mutexes; methods must not return pointers to mutex-guarded fields; no TryLock",
	Run:  run,
}

func run(pass *flow.Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFuncBody(pass, pkg, fd.Body)
				checkGuardedFieldReturn(pass, pkg, fd)
			}
		}
	}
}

// lockKey is the linear model's state key for a sync-method call: the
// lock expression as spelled, per mode (read and write holds of one
// RWMutex are counted apart).
func lockKey(h flow.Held) string {
	if h.Read {
		return h.Render + "\x00r"
	}
	return h.Render + "\x00w"
}

type lockEvent struct {
	pos    token.Pos
	key    string // lock expression + mode
	render string // lock expression for messages
	kind   string // "lock", "unlock", "return"
}

// checkFuncBody simulates lock state linearly over one function body
// (closures are checked as their own bodies). The state is a hold COUNT
// per lock-and-mode, not a boolean: sync.RWMutex read locks are
// recursive, so a body that takes a second RLock under a deferred
// RUnlock holds one real lock at return — a boolean model (what this
// analyzer used before) cancels them and misses the leak. At each
// return, a key whose count exceeds its deferred-unlock count is held.
func checkFuncBody(pass *flow.Pass, pkg *loader.Package, body *ast.BlockStmt) {
	var events []lockEvent
	deferred := map[string]int{} // key -> number of deferred unlocks
	renders := map[string]string{}

	record := func(pos token.Pos, key, render, kind string) {
		renders[key] = render
		events = append(events, lockEvent{pos, key, render, kind})
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncBody(pass, pkg, n.Body)
			return false
		case *ast.DeferStmt:
			if h, name, ok := flow.MutexMethod(pkg, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				deferred[lockKey(h)]++
			} else if lit, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); isLit {
				// A deferred closure is its own scope, but any unlock it
				// performs runs at function exit, so it also counts as a
				// deferred unlock for this body.
				checkFuncBody(pass, pkg, lit.Body)
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, isCall := m.(*ast.CallExpr); isCall {
						if h, name, ok := flow.MutexMethod(pkg, call); ok && (name == "Unlock" || name == "RUnlock") {
							deferred[lockKey(h)]++
						}
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			if h, name, ok := flow.MutexMethod(pkg, n); ok {
				switch name {
				case "Unlock", "RUnlock":
					record(n.Pos(), lockKey(h), h.Render, "unlock")
				case "Lock", "RLock":
					record(n.Pos(), lockKey(h), h.Render, "lock")
				case "TryLock", "TryRLock":
					pass.Reportf(n.Pos(),
						"%s.%s is not modelled by lockorder/suspendsafe/locksafe; take the lock or restructure",
						h.Render, name)
				}
			}
		case *ast.ReturnStmt:
			events = append(events, lockEvent{n.Pos(), "", "", "return"})
		}
		return true
	}
	ast.Inspect(body, visit)

	if len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	count := map[string]int{} // key -> current hold depth
	for _, e := range events {
		switch e.kind {
		case "lock":
			count[e.key]++
		case "unlock":
			if count[e.key] > 0 {
				count[e.key]--
			}
		case "return":
			keys := make([]string, 0, len(count))
			for k := range count {
				if count[k] > deferred[k] {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				pass.Reportf(e.pos,
					"return while %s is held (no Unlock between the Lock and this return); unlock before returning or use defer %s.Unlock()",
					renders[k], renders[k])
			}
		}
	}
}

// checkGuardedFieldReturn flags `return &recv.field` in methods of
// structs that carry a sync.Mutex/RWMutex field.
func checkGuardedFieldReturn(pass *flow.Pass, pkg *loader.Package, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvName := fd.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return
	}
	recvType := pkg.Info.TypeOf(fd.Recv.List[0].Type)
	if recvType == nil {
		return
	}
	if p, ok := recvType.(*types.Pointer); ok {
		recvType = p.Elem()
	}
	st, ok := recvType.Underlying().(*types.Struct)
	if !ok || !hasMutexField(st) {
		return
	}
	recvObj := pkg.Info.ObjectOf(fd.Recv.List[0].Names[0])

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ue, ok := ast.Unparen(res).(*ast.UnaryExpr)
			if !ok || ue.Op != token.AND {
				continue
			}
			sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || pkg.Info.ObjectOf(base) != recvObj {
				continue
			}
			if ft := pkg.Info.TypeOf(sel); ft != nil && isSyncType(ft) {
				continue // returning the locker itself (sync.Locker accessor)
			}
			pass.Reportf(ue.Pos(),
				"returning &%s.%s hands out a pointer to a field of mutex-guarded %s; callers can then mutate it without the lock",
				recvName, sel.Sel.Name, recvType.String())
		}
		return true
	})
}

func hasMutexField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if isSyncType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isSyncType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
