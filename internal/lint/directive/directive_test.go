package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"revtr/internal/lint/directive"
)

func parse(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestJustifiedDirectiveSuppresses(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = 0 //revtr:wallclock operator-facing metric
	_ = 1
	//revtr:unordered commutative body
	_ = 2
}
`)
	m := directive.Parse(fset, files)
	if len(m.Problems()) != 0 {
		t.Fatalf("unexpected problems: %v", m.Problems())
	}
	pos := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}
	if !m.Allows(fset, pos(4), directive.Wallclock) {
		t.Error("trailing directive should allow its own line")
	}
	if m.Allows(fset, pos(5), directive.Wallclock) {
		t.Error("trailing directive must not leak to the line below")
	}
	if m.Allows(fset, pos(4), directive.Unordered) {
		t.Error("wallclock directive must not allow unordered diagnostics")
	}
	if !m.Allows(fset, pos(7), directive.Unordered) {
		t.Error("standalone directive should allow the statement below")
	}
}

// TestPlacement pins the placement rule for every kind, read through At
// (the declarative kinds, suspends and calls, take the same road): a
// trailing directive covers its own line only, a standalone one the
// line below only.
func TestPlacement(t *testing.T) {
	for _, kind := range directive.Kinds {
		fset, files := parse(t, `package p

func f() {
	g() //revtr:`+kind+` trailing
	g()
	//revtr:`+kind+` standalone
	g(
		0)
	g()
}

//revtr:`+kind+` standalone above a declaration
func g(...int) {}
`)
		m := directive.Parse(fset, files)
		if len(m.Problems()) != 0 {
			t.Fatalf("%s: unexpected problems: %v", kind, m.Problems())
		}
		for line, want := range map[int]string{
			4: "trailing", 5: "", 6: "", 7: "standalone", 8: "", 9: "",
			11: "", 12: "", 13: "standalone above a declaration",
		} {
			ds := m.At(fset, fset.File(files[0].Pos()).LineStart(line), kind)
			switch {
			case want == "" && len(ds) != 0:
				t.Errorf("%s: line %d: got %v, want no directive", kind, line, ds)
			case want != "" && (len(ds) != 1 || ds[0].Justification != want):
				t.Errorf("%s: line %d: got %v, want the %q directive", kind, line, ds, want)
			}
		}
	}
}

func TestHeldAcrossDirective(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = 0 //revtr:heldacross the completion callback releases the lock
	_ = 1 //revtr:heldacross
}
`)
	m := directive.Parse(fset, files)
	ps := m.Problems()
	if len(ps) != 1 {
		t.Fatalf("got %d problems, want 1: %v", len(ps), ps)
	}
	if !strings.Contains(ps[0].Message, "//revtr:heldacross requires a justification") {
		t.Errorf("problem = %q, want heldacross justification complaint", ps[0].Message)
	}
	pos := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}
	if !m.Allows(fset, pos(4), directive.HeldAcross) {
		t.Error("justified heldacross should suppress on its line")
	}
	if m.Allows(fset, pos(4), directive.SpawnBound) {
		t.Error("heldacross must not suppress spawnbound diagnostics")
	}
	// The empty-justification directive is itself a diagnostic (checked
	// above) but still suppresses, so the author sees one actionable
	// message rather than two.
	if !m.Allows(fset, pos(5), directive.HeldAcross) {
		t.Error("unjustified heldacross should still suppress")
	}
}

func TestDeclarativeDirectivePayloads(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	g() //revtr:calls example.com/pkg.T.M
}

//revtr:suspends parks the caller until the callback fires
func g() {}
`)
	m := directive.Parse(fset, files)
	if len(m.Problems()) != 0 {
		t.Fatalf("unexpected problems: %v", m.Problems())
	}
	pos := func(line int) token.Pos {
		return fset.File(files[0].Pos()).LineStart(line)
	}
	ds := m.At(fset, pos(4), directive.Calls)
	if len(ds) != 1 || ds[0].Justification != "example.com/pkg.T.M" {
		t.Errorf("At(calls) = %v, want one directive with the target payload", ds)
	}
	if len(m.At(fset, pos(8), directive.Suspends)) != 1 {
		t.Error("At(suspends) should see the declaration above the func line")
	}
}

func TestMalformedDirectives(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = 0 //revtr:wallclock
	_ = 1 //revtr:frobnicate because
}
`)
	m := directive.Parse(fset, files)
	ps := m.Problems()
	if len(ps) != 2 {
		t.Fatalf("got %d problems, want 2: %v", len(ps), ps)
	}
	if !strings.Contains(ps[0].Message, "requires a justification") {
		t.Errorf("problem 0 = %q, want justification complaint", ps[0].Message)
	}
	if !strings.Contains(ps[1].Message, "unknown revtr directive") {
		t.Errorf("problem 1 = %q, want unknown-kind complaint", ps[1].Message)
	}
	// An unjustified directive still suppresses, so the author sees one
	// actionable message rather than two.
	if !m.Allows(fset, ps[0].Pos, directive.Wallclock) {
		t.Error("unjustified wallclock directive should still suppress")
	}
}
