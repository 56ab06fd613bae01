package suspendsafe_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/suspendsafe"
)

// TestSuspendSafe proves locks and tickets held across //revtr:suspends
// callees (direct, transitive, and via an interface method) are flagged,
// and that //revtr:heldacross and release-before-call keep quiet paths
// quiet.
func TestSuspendSafe(t *testing.T) {
	linttest.Run(t, "testdata/src", suspendsafe.Analyzer)
}
