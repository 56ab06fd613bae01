package core_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
)

// TestStructuredDebugLogging: decision events flow through the slog
// logger with src/dst/stage attributes.
func TestStructuredDebugLogging(t *testing.T) {
	h, eng := newHarness(t, nil)
	var buf bytes.Buffer
	eng.SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))

	dst := h.env.ResponsiveHost(0, h.src.Agent.AS)
	eng.MeasureReverse(context.Background(), h.src, dst.Addr)

	out := buf.String()
	if out == "" {
		t.Fatal("no structured debug events emitted")
	}
	for _, attr := range []string{"src=" + h.src.Agent.Addr.String(), "dst=", "stage="} {
		if !strings.Contains(out, attr) {
			t.Errorf("debug events missing %q attribute:\n%s", attr, out)
		}
	}
}
