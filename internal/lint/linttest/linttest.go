// Package linttest runs one analyzer over fixture packages and checks
// its findings against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest: every want comment must be
// matched by a finding on its line, and every finding must be expected
// by a want comment. Fixture packages live under testdata/src/<name> and
// are real, compiling packages of this module, so the analyzers are
// exercised against genuine type information; they may import each
// other by their full module paths, which is how the lockorder suite
// builds cross-package acquisition chains.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/flow"
	"revtr/internal/lint/loader"
)

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads every package under dir (relative to the calling test's
// directory, usually "testdata/src") in one loader call, builds the flow
// Program, runs the analyzer the way the suite's driver does, and
// asserts its findings match the want comments across all the packages.
func Run(t *testing.T, dir string, a *flow.Analyzer) {
	t.Helper()
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("loading %s: no packages", dir)
	}
	check(t, pkgs, flow.BuildProgram(pkgs).Run(a))
}

// check matches diagnostics against the want comments of every loaded
// package.
func check(t *testing.T, pkgs []*loader.Package, got []analysis.Finding) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			collectWants(t, p.Fset, f, func(file string, line int, re *regexp.Regexp) {
				k := key{file, line}
				wants[k] = append(wants[k], re)
			})
		}
	}

	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, f := range got {
		k := key{f.Position.Filename, f.Position.Line}
		ok := false
		for i, re := range wants[k] {
			if matched[k][i] {
				continue
			}
			if re.MatchString(f.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", relName(f.Position.Filename), f.Position.Line, f.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("missing diagnostic at %s:%d matching %q", relName(k.file), k.line, re)
			}
		}
	}
}

func relName(path string) string { return filepath.Base(path) }

// collectWants reports each `// want "re" ...` comment as (file, line,
// regexp) triples for the line the comment sits on.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, emit func(string, int, *regexp.Regexp)) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			// A line comment ends only with its line, so a want about a
			// comment (a malformed //revtr: directive) rides at its tail.
			if _, tail, ok := strings.Cut(text, "// want "); ok {
				text = "want " + tail
			}
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, m := range wantRE.FindAllString(text[len("want "):], -1) {
				pat, err := strconv.Unquote(m)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", relName(pos.Filename), pos.Line, m, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", relName(pos.Filename), pos.Line, pat, err)
				}
				emit(pos.Filename, pos.Line, re)
			}
		}
	}
}
