package detpath_test

import (
	"testing"

	"revtr/internal/lint/detpath"
	"revtr/internal/lint/linttest"
)

func TestDeterministicPackage(t *testing.T) {
	linttest.Run(t, "testdata/src/det", detpath.Analyzer)
}

func TestPlainPackage(t *testing.T) {
	linttest.Run(t, "testdata/src/plain", detpath.Analyzer)
}

func TestIsDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"revtr/internal/netsim":        true,
		"revtr/internal/netsim/faults": true,
		"revtr/internal/probe":         true,
		"revtr/internal/eval":          true,
		"revtr/internal/service":       false,
		"revtr/internal/obs":           false,
		"revtr/cmd/revtr-campaign":     false,
		"revtr/internal/netsimx":       false, // prefix must end at a path boundary
	} {
		if got := detpath.IsDeterministic(path); got != want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
