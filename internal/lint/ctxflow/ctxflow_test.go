package ctxflow_test

import (
	"testing"

	"revtr/internal/lint/ctxflow"
	"revtr/internal/lint/linttest"
)

func TestCtxflow(t *testing.T) {
	linttest.Run(t, "testdata/src", ctxflow.Analyzer)
}
