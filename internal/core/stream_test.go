package core_test

// Deterministic event contract (DESIGN.md §10): for a fixed seed, a
// measurement's progress-event sequence — kinds, per-measurement seq
// numbers, virtual timestamps, hops, techniques — is bit-identical
// between the blocking MeasureReverseStream and the suspended
// MeasureAsyncStream paths, across concurrent async interleavings, and
// between a workers=1 and a workers=N probe pool. Events are stamped
// only with per-measurement state (eseq, accumulated virtual probing
// time), never with wall clocks or cross-measurement counters, which
// is what makes this hold.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// renderEvents flattens an event sequence into a comparable string.
// Per-topic delivery IDs are broker state, explicitly outside the
// determinism contract, and are not rendered.
func renderEvents(evs []stream.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%d:%s@%dus hop=%s tech=%s spliced=%v count=%d status=%s\n",
			ev.Seq, ev.Kind, ev.VirtUS, ev.Hop, ev.Tech, ev.Spliced, ev.Count, ev.Status)
	}
	return b.String()
}

// collector accumulates one measurement's events. The async path calls
// the sink from whichever pool executor resumes the machine, so append
// is locked.
type collector struct {
	mu  sync.Mutex
	evs []stream.Event
}

func (c *collector) sink(ev stream.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func TestStreamEventDeterminism(t *testing.T) {
	opts := core.Revtr20Options()
	opts.UseCache = false // cached results skip probing and so skip events
	h, eng := newHarness(t, &opts)

	var dsts []ipv4.Addr
	for i := 0; len(dsts) < 10; i++ {
		d := h.env.ResponsiveHost(i*2, h.src.Agent.AS)
		if d == nil {
			break
		}
		dsts = append(dsts, d.Addr)
	}
	if len(dsts) < 4 {
		t.Skip("not enough destinations")
	}

	// Blocking baseline on the default multi-worker pool.
	want := make(map[ipv4.Addr]string, len(dsts))
	for _, d := range dsts {
		var c collector
		res := eng.MeasureReverseStream(context.Background(), h.src, d, c.sink)
		if len(c.evs) == 0 {
			t.Fatalf("%s: no events emitted", d)
		}
		if c.evs[0].Kind != stream.KindStarted {
			t.Fatalf("%s: first event %q, want started", d, c.evs[0].Kind)
		}
		last := c.evs[len(c.evs)-1]
		switch {
		case res.Status == core.StatusComplete && last.Kind != stream.KindDone:
			t.Fatalf("%s: complete measurement ended with %q event", d, last.Kind)
		case res.Status != core.StatusComplete && last.Kind == stream.KindDone:
			t.Fatalf("%s: %s measurement ended with done event", d, res.Status)
		}
		// Every revealed hop is mirrored by exactly one hop event.
		hops := 0
		for _, ev := range c.evs {
			if ev.Kind == stream.KindHop {
				hops++
			}
		}
		if hops != len(res.Hops) {
			t.Fatalf("%s: %d hop events for %d result hops", d, hops, len(res.Hops))
		}
		// Seq numbers are 1..n with no holes.
		for i, ev := range c.evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", d, i, ev.Seq)
			}
		}
		want[d] = renderEvents(c.evs)
	}

	// Async path, all destinations in flight concurrently: every
	// per-measurement sequence must match its blocking twin even though
	// pool executors interleave the measurements arbitrarily.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		collectors := make([]*collector, len(dsts))
		var wg sync.WaitGroup
		wg.Add(len(dsts))
		for i, d := range dsts {
			c := &collector{}
			collectors[i] = c
			eng.MeasureAsyncStream(context.Background(), h.src, d, c.sink, func(*core.Result) {
				wg.Done()
			})
		}
		wg.Wait()
		for i, d := range dsts {
			if got := renderEvents(collectors[i].evs); got != want[d] {
				t.Fatalf("round %d, %s: async event sequence diverged from blocking\nasync:\n%s\nblocking:\n%s",
					round, d, got, want[d])
			}
		}
	}

	// Workers=1 pool over the same fabric: serializing every probe batch
	// must not change a single event.
	p1 := probe.New(h.env.Fabric, h.env.Pool.Clock(), 1)
	eng1 := core.NewEngine(h.env.Fabric, p1, h.ing, h.env.Sites, h.env.Alias,
		ip2as.Origin{Topo: h.env.Topo}, nil, opts)
	for _, d := range dsts {
		var c collector
		eng1.MeasureReverseStream(context.Background(), h.src, d, c.sink)
		if got := renderEvents(c.evs); got != want[d] {
			t.Fatalf("%s: workers=1 event sequence diverged from workers=N\nworkers=1:\n%s\nworkers=N:\n%s",
				d, got, want[d])
		}
	}
}

// TestVPFailoverStampedAfterTheWait: a batch that finds a vantage point
// dead is short of a reply and waits out the timeout, and Deliver books
// that before the handler announces the failover — so a vp-failover event
// is stamped at least one timeout after the event before the batch,
// blocking and async alike.
func TestVPFailoverStampedAfterTheWait(t *testing.T) {
	c := newChaosEnv(t, 8, 20)
	plan := &faults.Plan{}
	for _, site := range c.env.Sites {
		if site.CanSpoof && site.Addr != c.src.Agent.Addr {
			plan.AddBlackout(site.Addr, 0, 0)
		}
	}
	c.env.Fabric.SetFaults(plan)
	defer c.env.Fabric.SetFaults(nil)
	failovers := 0
	for _, dst := range c.dsts {
		// A fresh engine each: nothing in the dead-VP cache yet.
		eng, _ := c.engine(1, probe.RetryPolicy{})
		var blocking, async collector
		eng.MeasureReverseStream(context.Background(), c.src, dst, blocking.sink)
		eng, _ = c.engine(4, probe.RetryPolicy{})
		done := make(chan struct{})
		eng.MeasureAsyncStream(context.Background(), c.src, dst, async.sink, func(*core.Result) { close(done) })
		<-done
		if got, want := renderEvents(async.evs), renderEvents(blocking.evs); got != want {
			t.Fatalf("%s: async event sequence diverged from blocking\nasync:\n%s\nblocking:\n%s", dst, got, want)
		}
		var before stream.Event // the last event ahead of the batch
		for _, ev := range blocking.evs {
			if ev.Kind != stream.KindVPFailover {
				before = ev
				continue
			}
			failovers++
			if ev.VirtUS < before.VirtUS+eng.Opts.SpoofTimeoutUS {
				t.Errorf("%s: vp-failover at %d us, %s before it at %d us: the batch's wait is missing from the stamp",
					dst, ev.VirtUS, before.Kind, before.VirtUS)
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no measurement met a dead vantage point: the test exercises nothing")
	}
}

// TestStreamSinkOptional: a machine without a sink emits nothing and
// measures identically to one with a sink (the sink is observation,
// never behavior).
func TestStreamSinkOptional(t *testing.T) {
	opts := core.Revtr20Options()
	opts.UseCache = false
	h, eng := newHarness(t, &opts)
	d := h.env.ResponsiveHost(2, h.src.Agent.AS)
	if d == nil {
		t.Skip("no destination")
	}
	var c collector
	with := eng.MeasureReverseStream(context.Background(), h.src, d.Addr, c.sink)
	without := eng.MeasureReverse(context.Background(), h.src, d.Addr)
	if renderCoreResult(with) != renderCoreResult(without) {
		t.Fatalf("sink changed the measurement:\nwith:    %s\nwithout: %s",
			renderCoreResult(with), renderCoreResult(without))
	}
	if len(c.evs) == 0 {
		t.Fatal("sink saw no events")
	}
}
