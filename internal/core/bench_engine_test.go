package core_test

// Engine benchmark corpus (ROADMAP item 5): measurements/s at 1, 100,
// 1k, and 10k in-flight measurements through the resumable machine, and
// the footprint of one suspended measurement. `make bench` smoke-runs
// the benchmarks; `make bench` also regenerates BENCH_engine.json via
// TestWriteEngineBenchJSON (gated on the BENCH_ENGINE_JSON env var) so
// the checked-in numbers track the code.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
)

// benchDsts collects up to n responsive destinations outside the
// source's AS.
func benchDsts(h *harness, n int) []ipv4.Addr {
	var dsts []ipv4.Addr
	for i := 0; len(dsts) < n; i++ {
		d := h.env.ResponsiveHost(i*2, h.src.Agent.AS)
		if d == nil {
			break
		}
		dsts = append(dsts, d.Addr)
	}
	return dsts
}

// runConcurrent drives n measurements with at most level in flight and
// returns the wall-clock rate.
func runConcurrent(eng *core.Engine, h *harness, dsts []ipv4.Addr, n, level int) float64 {
	sem := make(chan struct{}, level)
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now() //revtr:wallclock benchmark timing
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		eng.MeasureAsyncStream(context.Background(), h.src, dsts[i%len(dsts)], nil, func(*core.Result) {
			<-sem
			wg.Done()
		})
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds() //revtr:wallclock benchmark timing
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed
}

func BenchmarkEngineConcurrency(b *testing.B) {
	for _, level := range []int{1, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("inflight%d", level), func(b *testing.B) {
			opts := core.Revtr20Options()
			opts.UseCache = false
			h, eng := newHarness(b, &opts)
			dsts := benchDsts(h, 16)
			if len(dsts) == 0 {
				b.Skip("no destinations")
			}
			b.ReportAllocs()
			b.ResetTimer()
			rate := runConcurrent(eng, h, dsts, b.N, level)
			b.ReportMetric(rate, "revtrs/s")
		})
	}
}

// BenchmarkMachineSuspend prices one suspended measurement: Begin plus
// the compute to the first probe-batch suspension; -benchmem's B/op and
// allocs/op are the per-suspension footprint the 10k-concurrency bound
// rests on.
func BenchmarkMachineSuspend(b *testing.B) {
	opts := core.Revtr20Options()
	opts.UseCache = false
	h, eng := newHarness(b, &opts)
	dsts := benchDsts(h, 16)
	dst, ok := firstSuspendingDst(eng, h, dsts)
	if !ok {
		b.Skip("no destination suspends")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm := eng.Begin(context.Background(), h.src, dst)
		if mm.Next() == nil {
			b.Fatal("measurement completed without suspending")
		}
	}
}

// firstSuspendingDst finds a destination whose measurement suspends on
// at least one probe batch.
func firstSuspendingDst(eng *core.Engine, h *harness, dsts []ipv4.Addr) (ipv4.Addr, bool) {
	for _, d := range dsts {
		if eng.Begin(context.Background(), h.src, d).Next() != nil {
			return d, true
		}
	}
	return 0, false
}

// suspendedFootprint parks k suspended machines and reports the
// retained heap bytes and allocation count per machine.
func suspendedFootprint(eng *core.Engine, h *harness, dst ipv4.Addr, k int) (bytesPer, allocsPer float64) {
	machines := make([]*core.Machine, k)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range machines {
		mm := eng.Begin(context.Background(), h.src, dst)
		mm.Next()
		machines[i] = mm
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		bytesPer = float64(after.HeapAlloc-before.HeapAlloc) / float64(k)
	}
	allocsPer = float64(after.Mallocs-before.Mallocs) / float64(k)
	runtime.KeepAlive(machines)
	return bytesPer, allocsPer
}

// TestWriteEngineBenchJSON regenerates BENCH_engine.json. Gated on the
// BENCH_ENGINE_JSON env var (the output path) so `go test ./...` stays
// side-effect free; `make bench` sets it.
func TestWriteEngineBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_ENGINE_JSON")
	if path == "" {
		t.Skip("set BENCH_ENGINE_JSON=<path> to write the engine benchmark corpus")
	}
	opts := core.Revtr20Options()
	opts.UseCache = false
	h, eng := newHarness(t, &opts)
	dsts := benchDsts(h, 16)
	if len(dsts) == 0 {
		t.Skip("no destinations")
	}

	type row struct {
		InFlight   int     `json:"in_flight"`
		N          int     `json:"measurements"`
		PerSec     float64 `json:"measurements_per_sec"`
		Goroutines int     `json:"goroutines_peak_sampled"`
		UsPerRevtr float64 `json:"us_per_measurement"`
	}
	var rows []row
	for _, level := range []int{1, 100, 1000, 10000} {
		n := 4 * level
		if n < 2000 {
			n = 2000
		}
		if n > 20000 {
			n = 20000
		}
		rate := runConcurrent(eng, h, dsts, n, level)
		rows = append(rows, row{
			InFlight:   level,
			N:          n,
			PerSec:     rate,
			Goroutines: runtime.NumGoroutine(),
			UsPerRevtr: 1e6 / rate,
		})
		t.Logf("in-flight %5d: %.0f measurements/s over %d", level, rate, n)
	}
	sdst, ok := firstSuspendingDst(eng, h, dsts)
	if !ok {
		t.Skip("no destination suspends")
	}
	bytesPer, allocsPer := suspendedFootprint(eng, h, sdst, 2000)
	t.Logf("suspended machine: %.0f B, %.1f allocs", bytesPer, allocsPer)

	doc := struct {
		Bench       string  `json:"bench"`
		Topology    string  `json:"topology"`
		GoMaxProcs  int     `json:"gomaxprocs"`
		Concurrency []row   `json:"concurrency"`
		SuspB       float64 `json:"suspended_machine_bytes"`
		SuspAllocs  float64 `json:"suspended_machine_allocs"`
	}{
		Bench:       "engine",
		Topology:    "simtest 300 ASes seed 8, revtr 2.0 options, cache off",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Concurrency: rows,
		SuspB:       bytesPer,
		SuspAllocs:  allocsPer,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
