package lockorder_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/lockorder"
)

// TestLockOrder proves a seeded sched↔registry-style inversion across
// two fixture packages (one edge declared via //revtr:calls, one static)
// is reported as a cycle.
func TestLockOrder(t *testing.T) {
	linttest.Run(t, "testdata/src", lockorder.Analyzer)
}
