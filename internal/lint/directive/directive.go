// Package directive parses the //revtr: escape-hatch comments the lint
// suite honours. The grammar is
//
//	//revtr:wallclock <justification>
//	//revtr:unordered <justification>
//	//revtr:heldacross <justification>
//	//revtr:spawnbound <justification>
//	//revtr:suspends <justification>
//	//revtr:calls <pkgpath.Func | pkgpath.Type.Method>
//
// A trailing directive (code before it on its line) covers that line; a
// standalone one (alone on its line) covers the line directly below it,
// the flagged statement. A trailing directive does not reach the next
// line: a waiver written for one statement must not excuse its
// neighbour. The justification is mandatory:
// a directive without one is itself a diagnostic, so every escape hatch
// in the tree carries its reason next to the code it excuses. The two
// declarative kinds reuse the justification slot: //revtr:suspends
// explains *why* the function suspends, and //revtr:calls names the
// function an indirect call resolves to.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive kinds.
const (
	// Wallclock excuses an intentional time.Now/time.Since site (real
	// wall-clock observability, never simulation logic).
	Wallclock = "wallclock"
	// Unordered excuses a map range whose body is order-independent in a
	// way the analyzer cannot prove.
	Unordered = "unordered"
	// HeldAcross excuses a lock, ticket, or quota slot intentionally held
	// across a suspension point (suspendsafe).
	HeldAcross = "heldacross"
	// SpawnBound excuses a goroutine launch whose lifetime bound the CFG
	// cannot see (spawnbound).
	SpawnBound = "spawnbound"
	// Suspends declares that the function (or interface method) on the
	// annotated line parks the caller's measurement: calls reaching it are
	// suspension points for suspendsafe. The payload is the reason.
	Suspends = "suspends"
	// Calls declares the target of an indirect call on the annotated line
	// (a function-typed field or interface the static call graph cannot
	// resolve). The payload is the fully qualified target:
	// pkgpath.Func or pkgpath.Type.Method.
	Calls = "calls"
)

// Kinds is the closed set of directive kinds, in grammar order. Each has
// at least one use in the tree (lint.TestDirectiveKindsInUse): a hatch
// nothing opens is deleted, not kept.
var Kinds = []string{Wallclock, Unordered, HeldAcross, SpawnBound, Suspends, Calls}

const prefix = "//revtr:"

// Directive is one parsed //revtr: comment.
type Directive struct {
	Kind          string
	Justification string
	Pos           token.Pos
	// Standalone is set when no code precedes the directive on its line.
	Standalone bool
}

// Problem is a malformed directive (unknown kind or no justification).
type Problem struct {
	Pos     token.Pos
	Message string
}

// Map indexes the parsed files' directives by file and line.
type Map struct {
	byLine   map[string]map[int][]Directive // filename -> line -> directives
	problems []Problem
}

// Parse extracts every //revtr: directive from the files' comments.
func Parse(fset *token.FileSet, files []*ast.File) *Map {
	m := &Map{byLine: map[string]map[int][]Directive{}}
	for _, f := range files {
		var code map[int]bool // lines of f holding code; built at f's first directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, prefix)
				kind, just, _ := strings.Cut(body, " ")
				just = strings.TrimSpace(just)
				if !known(kind) {
					m.problems = append(m.problems, Problem{
						Pos:     c.Pos(),
						Message: "unknown revtr directive //revtr:" + kind + " (known kinds: " + strings.Join(Kinds, ", ") + ")",
					})
					continue
				}
				if just == "" {
					payload := "<why>"
					if kind == Calls {
						payload = "<pkgpath.Func>"
					}
					m.problems = append(m.problems, Problem{
						Pos:     c.Pos(),
						Message: "//revtr:" + kind + " requires a justification (//revtr:" + kind + " " + payload + ")",
					})
					// Still index it: an unjustified directive suppresses the
					// underlying diagnostic so the author sees one actionable
					// message (add the justification), not two.
				}
				pos := fset.Position(c.Pos())
				lines := m.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Directive{}
					m.byLine[pos.Filename] = lines
				}
				if code == nil {
					code = codeLines(fset, f)
				}
				lines[pos.Line] = append(lines[pos.Line], Directive{Kind: kind, Justification: just, Pos: c.Pos(), Standalone: !code[pos.Line]})
			}
		}
	}
	return m
}

func known(kind string) bool {
	for _, k := range Kinds {
		if kind == k {
			return true
		}
	}
	return false
}

// codeLines returns the lines of f on which a syntax node starts or
// ends. A // comment runs to the end of its line, so a directive on such
// a line has code before it: it is trailing, not standalone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		if n.Pos().IsValid() && n.End().IsValid() {
			lines[fset.Position(n.Pos()).Line] = true
			lines[fset.Position(n.End()-1).Line] = true
		}
		return true
	})
	return lines
}

// Allows reports whether a diagnostic of the given kind at pos is
// suppressed by a directive attached to pos (see At).
func (m *Map) Allows(fset *token.FileSet, pos token.Pos, kind string) bool {
	return len(m.At(fset, pos, kind)) > 0
}

// At returns the directives of the given kind attached to pos: trailing
// on the same line, or standalone on the line directly above.
// Declarative kinds (suspends, calls) are read through At, so their
// payloads follow the same placement rule as suppressions.
func (m *Map) At(fset *token.FileSet, pos token.Pos, kind string) []Directive {
	p := fset.Position(pos)
	lines, ok := m.byLine[p.Filename]
	if !ok {
		return nil
	}
	var out []Directive
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Kind == kind && d.Standalone == (line != p.Line) {
				out = append(out, d)
			}
		}
	}
	return out
}

// Problems lists the malformed directives found during Parse.
func (m *Map) Problems() []Problem { return m.problems }
