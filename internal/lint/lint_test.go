package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"revtr/internal/lint"
	"revtr/internal/lint/directive"
)

// TestRepoIsClean is the suite's meta-test: the module itself must lint
// clean under all seven analyzers, so `make lint` (and the lint step of
// `make ci`) stays a zero-findings gate. Any new wall-clock read,
// global rand draw, unsorted map range, context/metrics/lock
// violation, TryLock, lock-order inversion, lock held across a
// suspension point, or unbounded goroutine fails here first, with the
// same message revtr-lint prints.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint sweep type-checks the whole module; skipped in -short")
	}
	want := []string{"detpath", "ctxflow", "obsnames", "locksafe", "lockorder", "suspendsafe", "spawnbound"}
	var got []string
	for _, a := range lint.Analyzers() {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("lint.Analyzers() = %v, want %v", got, want)
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(root, "./...")
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}

// TestDirectiveKindsInUse holds the escape hatches to the rule the rest
// of the tree lives by: every //revtr: kind the suite honours is written
// at least once in the code the suite reads (non-test files outside
// testdata). A kind nothing uses is grammar, a fixture and two checks
// kept alive for nobody — delete it instead.
func TestDirectiveKindsInUse(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string]int{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); d.Name() == "testdata" || (err == nil && path != root) {
				return filepath.SkipDir // fixtures, and bench/: a module of its own the suite never loads
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//revtr:"); ok {
					kind, _, _ := strings.Cut(rest, " ")
					uses[kind]++
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range directive.Kinds {
		if uses[kind] == 0 {
			t.Errorf("//revtr:%s has no use outside testdata; delete the kind", kind)
		}
	}
	t.Logf("directive uses: %v", uses)
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
