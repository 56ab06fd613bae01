package spawnbound_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/spawnbound"
)

// TestSpawnBound proves naked go statements (literal and named) are
// flagged, WaitGroup- and context-bounded spawns pass (including a
// bound proven transitively in the spawned callee), and
// //revtr:spawnbound suppresses with a justification.
func TestSpawnBound(t *testing.T) {
	linttest.Run(t, "testdata/src", spawnbound.Analyzer)
}
