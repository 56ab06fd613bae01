package obsnames_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/obsnames"
)

func TestObsnames(t *testing.T) {
	linttest.Run(t, "testdata/src", obsnames.Analyzer)
}
