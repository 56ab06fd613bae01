package core_test

// Concurrency-at-scale test for the resumable machine:
// MeasureAsyncStream must sustain 10k concurrent measurements with memory-bounded state
// (suspended Machines on the heap) rather than a parked goroutine per
// measurement, and every result must match the synchronous engine.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
)

// TestMeasureAsyncTenThousand launches 10k measurements (2k under the
// race detector) through MeasureAsyncStream before any of them completes its
// probing, then checks (a) the process never grew a goroutine per
// in-flight measurement — concurrency lives in suspended machine
// records drained by the probe pool's bounded executors — and (b) every
// async result is identical to a synchronous MeasureReverse of the same
// destination.
func TestMeasureAsyncTenThousand(t *testing.T) {
	n := 10_000
	if raceEnabled {
		n = 2_000 // the race detector makes the full size needlessly slow
	}
	opts := core.Revtr20Options()
	opts.UseCache = false // async results must not depend on completion order
	h, eng := newHarness(t, &opts)

	var dsts []ipv4.Addr
	for i := 0; len(dsts) < 12; i++ {
		d := h.env.ResponsiveHost(i*2, h.src.Agent.AS)
		if d == nil {
			break
		}
		dsts = append(dsts, d.Addr)
	}
	if len(dsts) < 4 {
		t.Skip("not enough destinations")
	}
	want := make(map[ipv4.Addr]string, len(dsts))
	for _, d := range dsts {
		want[d] = renderCoreResult(eng.MeasureReverse(context.Background(), h.src, d))
	}

	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	results := make([]*core.Result, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		eng.MeasureAsyncStream(context.Background(), h.src, dsts[i%len(dsts)], nil, func(res *core.Result) {
			results[i] = res
			wg.Done()
		})
		if i%64 == 0 {
			g := int64(runtime.NumGoroutine())
			for {
				m := peak.Load()
				if g <= m || peak.CompareAndSwap(m, g) {
					break
				}
			}
		}
	}
	wg.Wait()

	// A goroutine-per-measurement design would park thousands here; the
	// pool's executor budget plus runtime service goroutines is two
	// orders of magnitude below the in-flight count.
	if limit := int64(baseline + 100); peak.Load() > limit {
		t.Fatalf("goroutines peaked at %d for %d in-flight measurements (baseline %d)",
			peak.Load(), n, baseline)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("measurement %d never completed", i)
		}
		d := dsts[i%len(dsts)]
		if got := renderCoreResult(res); got != want[d] {
			t.Fatalf("measurement %d (dst %s) diverged from synchronous run\nsync  %s\nasync %s",
				i, d, want[d], got)
		}
	}
	t.Logf("%d async measurements, goroutine peak %d (baseline %d)", n, peak.Load(), baseline)
}
