package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"revtr/internal/measure"
	"revtr/internal/service"
)

// dayUS is how far the virtual clock moves at the start of each day:
// past the engine cache's one-day TTL and every segment TTL.
const dayUS = 25 * 3600 * 1_000_000

// dayStat is one timed day.
type dayStat struct {
	refNS   int64 // refKernel time around the day: mean of one run before and one after
	p50NS   int64 // the day's median request latency
	wall    time.Duration
	jobs    int
	mallocs uint64
	bytes   uint64
	cpu     time.Duration
}

// pass is one measured window on one server: a fixed number of whole
// days, run back to back. Passes over several servers add up (add).
type pass struct {
	days     []dayStat
	jobs     int
	failed   int
	requests int
	lat      []int64 // request latencies of every day, ns, as timed
	// Latency sum and count of the traced pass's span-recording requests
	// (every other one); the rest of lat is its untraced requests.
	tracedNS, tracedN int64
	state             [numStates]int
	obs               obsSnap          // registry delta over the window
	sent              measure.Counters // Pool.Counters() delta, by probe kind
	revtrs            int              // measurements archived
	complete          int
	walBytes          int64
	hops              uint64 // fabric deltas
	injected          uint64
	dropped           uint64
	gcCPU             float64 // seconds
	totalCPU          float64
	gcCycles          uint32
	retained          int64 // HeapAlloc after a forced GC, end minus start
	// earlyEnds counts batches whose event stream ended before the
	// batch was done, so the client had to poll for the final status.
	earlyEnds int
	// Peaks the sampler saw (per-layer runs only).
	goroutinesPeak int
	heapPeak       uint64
	queueMax       int
	checks         []string // failed output checks
	firstErr       error
}

// timed is the summed wall time of the pass's days.
func (p *pass) timed() time.Duration {
	var sum time.Duration
	for _, d := range p.days {
		sum += d.wall
	}
	return sum
}

// The wall-clock results are medians over the days, so one slow day — a
// GC cycle, a WAL compaction — does not move them. The gated ones are
// scaled day by day to the box's nominal speed by the reference kernel
// timed around each day (refkernel.go), which divides out a slow phase
// of the box; the unscaled medians are reported beside them, per layer,
// so that a change which slowed the kernel along with itself shows.

// dayMedian is the median over the days of f.
func (p *pass) dayMedian(f func(dayStat) float64) float64 {
	v := make([]float64, len(p.days))
	for i, d := range p.days {
		v[i] = f(d)
	}
	return medianFloat(v)
}

// jobsPerS is the median per-day job rate at nominal speed.
func (p *pass) jobsPerS() float64 {
	return p.dayMedian(func(d dayStat) float64 { return float64(d.jobs) / d.wall.Seconds() / speedIndex(d.refNS) })
}

// reqP50MS is the median over the days of the day's median request
// latency at nominal speed.
func (p *pass) reqP50MS() float64 {
	return p.dayMedian(func(d dayStat) float64 { return float64(d.p50NS) / 1e6 * speedIndex(d.refNS) })
}

// jobsPerSAsTimed and reqP50MSAsTimed are the same medians, unscaled.
func (p *pass) jobsPerSAsTimed() float64 {
	return p.dayMedian(func(d dayStat) float64 { return float64(d.jobs) / d.wall.Seconds() })
}

func (p *pass) reqP50MSAsTimed() float64 {
	return p.dayMedian(func(d dayStat) float64 { return float64(d.p50NS) / 1e6 })
}

// speedIndex is the median of the days' speed indices.
func (p *pass) speedIndex() float64 {
	return p.dayMedian(func(d dayStat) float64 { return speedIndex(d.refNS) })
}

func (p *pass) check(ok bool, format string, args ...any) {
	if !ok {
		p.checks = append(p.checks, fmt.Sprintf(format, args...))
	}
}

// runPass measures days days. Each day: advance the virtual clock and
// reset the day inside the timed region, drive the day's requests, then
// — untimed — check the day's outputs against the archive and the pool
// ledger.
func runPass(ctx context.Context, dep *deployment, srv *server, wl *workload, gen *generator, tr *tracer, days int, sample bool) *pass {
	p := &pass{}
	clients := make([]*client, numClients())
	for i := range clients {
		clients[i] = newClient(srv, wl, tr)
	}
	var peaks *sampler
	if sample {
		peaks = startSampler(srv.sched.QueueDepth)
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	heapStart, gcStart := ms0.HeapAlloc, ms0.NumGC
	gc0, total0 := gcCPU()
	obs0 := snapshot(srv.reg.Obs())
	f := dep.d.Fabric
	hops0, inj0, drop0 := f.HopsForwarded(), f.PacketsInjected(), f.PacketsDropped()

	for len(p.days) < days && ctx.Err() == nil {
		reqs := gen.day()
		id0 := srv.archive.NextID()
		probes0 := dep.d.Pool.Counters()
		ref0 := timeRef()
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()

		start := now()
		dep.d.Clock.Advance(dayUS)
		srv.reg.ResetDay()
		runDay(ctx, clients, reqs)
		wall := now().Sub(start)

		cpu1 := cpuTime()
		runtime.ReadMemStats(&ms1)
		ref1 := timeRef()
		jobs := jobsIn(reqs)
		var lat []int64
		for _, c := range clients {
			lat = append(lat, c.lat...)
			c.lat = c.lat[:0]
		}
		p.lat = append(p.lat, lat...)
		p.days = append(p.days, dayStat{refNS: (ref0 + ref1) / 2,
			p50NS: medianInt(lat), wall: wall, jobs: jobs,
			mallocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc, cpu: cpu1 - cpu0})
		p.jobs += jobs
		p.requests += len(reqs)
		p.verifyDay(dep, srv, id0, dep.d.Pool.Counters().Sub(probes0))
	}

	p.obs = snapshot(srv.reg.Obs()).sub(obs0)
	p.hops, p.injected, p.dropped = f.HopsForwarded()-hops0, f.PacketsInjected()-inj0, f.PacketsDropped()-drop0
	gc1, total1 := gcCPU()
	p.gcCPU, p.totalCPU = gc1-gc0, total1-total0
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.retained = int64(ms1.HeapAlloc) - int64(heapStart)
	p.gcCycles = ms1.NumGC - gcStart - 1 // minus the forced cycle just above
	if peaks != nil {
		peaks.finish()
		p.goroutinesPeak, p.heapPeak, p.queueMax = peaks.goroutines, peaks.heapBytes, peaks.queueMax
	}

	for _, c := range clients {
		p.failed += c.failed
		for st, n := range c.state {
			p.state[st] += n
		}
		if p.firstErr == nil {
			p.firstErr = c.err
		}
		p.earlyEnds += c.earlyEnds
		p.tracedNS += c.tracedNS
		p.tracedN += c.tracedN
		c.hc.CloseIdleConnections()
	}
	p.verifyPass(wl)
	return p
}

// verifyDay checks one day's archived measurements: every complete
// measurement's hop list runs from its destination to its source, and
// the probes the pool sent are exactly the probes the measurements
// report — the pool ledger.
func (p *pass) verifyDay(dep *deployment, srv *server, id0 uint64, sent measure.Counters) {
	var reported uint64
	revtrs, badHops := 0, 0
	err := srv.archive.Replay(func(id uint64, data []byte) error {
		if id < id0 {
			return nil
		}
		var m service.Measurement
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("measurement %d: %w", id, err)
		}
		revtrs++
		reported += m.Probes
		p.walBytes += int64(len(data) + len(`{"id":,"data":}`) + len(strconv.Itoa(int(id))) + 1)
		if m.Status != "complete" {
			return nil
		}
		p.complete++
		if n := len(m.Hops); n < 2 || m.Hops[0].Addr != m.Dst || m.Hops[n-1].Addr != m.Src {
			badHops++
		}
		return nil
	})
	p.revtrs += revtrs
	p.sent = p.sent.Add(sent)
	p.check(err == nil, "archive: %v", err)
	p.check(badHops == 0, "hop lists: %d complete measurements do not run from their destination to their source", badHops)
	p.check(id0+uint64(revtrs) == srv.archive.NextID(), "archive: day began at id %d and holds %d of its records, next id is %d (retention dropped some)",
		id0, revtrs, srv.archive.NextID())
	p.check(reported == sent.Total(), "pool ledger: pool sent %d probes, the day's %d archived measurements report %d",
		sent.Total(), revtrs, reported)
}

// verifyPass checks the job accounting of the whole window.
func (p *pass) verifyPass(wl *workload) {
	terminal := 0
	for _, n := range p.state {
		terminal += n
	}
	p.check(terminal == p.jobs, "jobs: %d submitted, %d terminal states in the final statuses (%d done, %d coalesced, %d failed, %d shed)",
		p.jobs, terminal, p.state[stDone], p.state[stCoalesced], p.state[stFailed], p.state[stShed])
	p.check(p.failed == 0, "jobs: %d of %d failed, were shed, came back non-2xx or hit the %s watchdog (first error: %v)",
		p.failed, p.jobs, watchdog, p.firstErr)
	engine := int(p.obs["engine_measure_complete_total"] + p.obs["engine_measure_aborted_total"] +
		p.obs["engine_measure_failed_total"] + p.obs["engine_measure_cancelled_total"])
	p.check(engine == p.revtrs, "engine finished %d measurements, the archive gained %d", engine, p.revtrs)
	if !wl.sync && !wl.zipf {
		p.check(p.state[stCoalesced] == 0 && p.obs["sched_coalesced_total"] == 0,
			"%s: %d jobs coalesced (sched_coalesced_total %v); every job should lead its own flight",
			wl.name, p.state[stCoalesced], p.obs["sched_coalesced_total"])
	}
}

// add folds a later pass (another server of the same run) into p.
func (p *pass) add(q *pass) {
	p.days = append(p.days, q.days...)
	p.jobs += q.jobs
	p.failed += q.failed
	p.requests += q.requests
	p.lat = append(p.lat, q.lat...)
	for st, n := range q.state {
		p.state[st] += n
	}
	for name, v := range q.obs {
		p.obs[name] += v
	}
	p.sent = p.sent.Add(q.sent)
	p.revtrs += q.revtrs
	p.complete += q.complete
	p.walBytes += q.walBytes
	p.hops += q.hops
	p.injected += q.injected
	p.dropped += q.dropped
	p.gcCPU += q.gcCPU
	p.totalCPU += q.totalCPU
	p.gcCycles += q.gcCycles
	p.retained = max(p.retained, q.retained)
	p.earlyEnds += q.earlyEnds
	p.checks = append(p.checks, q.checks...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.goroutinesPeak = max(p.goroutinesPeak, q.goroutinesPeak)
	p.heapPeak = max(p.heapPeak, q.heapPeak)
	p.queueMax = max(p.queueMax, q.queueMax)
}

// err folds the failed checks into one error.
func (p *pass) err() error {
	if len(p.checks) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%d output checks failed:", len(p.checks))
	for i, c := range p.checks {
		if i == 5 {
			msg += fmt.Sprintf("\n  ... and %d more", len(p.checks)-i)
			break
		}
		msg += "\n  " + c
	}
	return errors.New(msg)
}
