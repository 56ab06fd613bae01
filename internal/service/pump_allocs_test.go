//go:build !race

package service

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"revtr/internal/stream"
)

// TestPumpAllocCeiling: the NDJSON pump allocates nothing per event it
// writes. A subscription pre-filled with n hop events and an end is
// pumped into a recorder whose body is sized to hold it; the mallocs of
// a pump of n events less those of a pump of none, divided by n (and
// truncated, as testing.AllocsPerRun does), is the per-event count.
// Not built under -race, where sync.Pool drops a share of its Puts and
// encoding/json allocates the encode states it would have reused.
func TestPumpAllocCeiling(t *testing.T) {
	const n = 255
	a := &API{heartbeat: time.Hour}
	pump := func(events int) (mallocs uint64, lines int) {
		b := stream.New(stream.Options{})
		sub, err := b.Subscribe("t", stream.SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < events; i++ {
			b.Publish("t", stream.Event{Kind: stream.KindHop, Seq: uint64(i + 1), Src: "10.0.0.1", Dst: "10.0.0.2", Hop: "10.0.0.3", Tech: "rr"})
		}
		b.Publish("t", stream.Event{Kind: stream.KindEnd, Job: -1, Reason: "done"})
		w := httptest.NewRecorder()
		w.Body = bytes.NewBuffer(make([]byte, 0, 64<<10))
		r := httptest.NewRequest("GET", "/api/v1/batch/x/events", nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a.pumpFiltered(w, r, sub, nil, nil)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, strings.Count(w.Body.String(), "\n")
	}
	pump(n) // warm encoding/json's type cache and encode-state pool
	base, baseLines := pump(0)
	full, fullLines := pump(n)
	if baseLines != 1 || fullLines != n+1 {
		t.Fatalf("pumped %d and %d lines, want 1 and %d", baseLines, fullLines, n+1)
	}
	if perEvent := (full - min(base, full)) / n; perEvent > 0 {
		t.Errorf("the pump allocates %d times per event written, ceiling 0", perEvent)
	}
}
