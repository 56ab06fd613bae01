package locksafe_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/locksafe"
)

func TestLocksafe(t *testing.T) {
	linttest.Run(t, "testdata/src", locksafe.Analyzer)
}
