package probe_test

// Async executor suite: Pool.Go / Pool.GoTraceroute run submitted work
// on a bounded set of on-demand executor goroutines and must produce
// exactly the replies the synchronous entry points produce.

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/simtest"
)

// TestGoMatchesDoPolicy: an async batch yields byte-identical replies
// and counters to the same specs through Do under the same retry
// policy, and the queue is
// empty once the completion callback has fired.
func TestGoMatchesDoPolicy(t *testing.T) {
	env := simtest.New(t, 150, 3)
	pool := probe.New(env.Fabric, measure.NewClock(), 4)
	reqs := buildRequests(env, 32)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	pol := probe.RetryPolicy{Max: 1}
	pool.SetRetry(pol)
	want := pool.Do(context.Background(), reqs)

	got := make(chan probe.Batch, 1)
	pool.Go(context.Background(), reqs, pol, func(b probe.Batch) { got <- b })
	b := <-got
	if !reflect.DeepEqual(b.Replies, want.Replies) {
		t.Fatal("async replies diverge from Do")
	}
	if b.Sent != want.Sent || b.Skipped != want.Skipped {
		t.Fatalf("async accounting %+v/%d != sync %+v/%d", b.Sent, b.Skipped, want.Sent, want.Skipped)
	}
	if n := pool.AsyncBacklog(); n != 0 {
		t.Fatalf("async backlog = %d after completion, want 0", n)
	}
}

// TestGoTracerouteMatchesSync: the async traceroute wrapper returns the
// same hops and sent-count as the blocking call, for a fresh traceroute
// and for one continuing it below its penultimate hop; the fresh one
// climbs three TTLs past every responsive hop.
func TestGoTracerouteMatchesSync(t *testing.T) {
	env := simtest.New(t, 150, 5)
	pool := probe.New(env.Fabric, measure.NewClock(), 2)
	src := env.Agent(env.SourceHost(0))
	dst := env.ResponsiveHost(1, src.AS)
	if dst == nil {
		t.Fatal("no destination")
	}
	outside := func(_, _ ipv4.Addr) bool { return false }
	first, _ := pool.Traceroute(context.Background(), measure.Trace{Agent: src, Dst: dst.Addr, Salt: 1000, Start: 8, Run: measure.SilentRun, Within: outside})
	if len(first.Hops) < 3 {
		t.Fatal("path too short to continue")
	}
	for _, prev := range []*measure.TracerouteResult{nil, &first} {
		tc := measure.Trace{Agent: src, Dst: dst.Addr, Salt: 1000, Start: 8, Run: measure.SilentRun, Prev: prev, Within: outside}
		if prev != nil {
			tc.Start = len(first.Hops) - 1
		}
		wantTr, wantSent := pool.Traceroute(context.Background(), tc)

		type out struct {
			tr   measure.TracerouteResult
			sent int
		}
		got := make(chan out, 1)
		pool.GoTraceroute(context.Background(), tc, func(tr measure.TracerouteResult, sent int) {
			got <- out{tr, sent}
		})
		o := <-got
		if !reflect.DeepEqual(o.tr, wantTr) || o.sent != wantSent {
			t.Fatalf("async traceroute (continued %v) diverged: %+v/%d vs %+v/%d", prev != nil, o.tr, o.sent, wantTr, wantSent)
		}
	}
}

// TestGoBoundedExecutors: flooding the pool with async batches never
// spawns more than the worker budget of executor goroutines, all
// callbacks fire, and the executors exit once the queue drains.
func TestGoBoundedExecutors(t *testing.T) {
	env := simtest.New(t, 150, 7)
	const workers = 3
	pool := probe.New(env.Fabric, measure.NewClock(), workers)
	reqs := buildRequests(env, 8)
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}

	baseline := runtime.NumGoroutine()
	const n = 200
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		pool.Go(context.Background(), reqs, probe.RetryPolicy{}, func(probe.Batch) { wg.Done() })
	}
	if g := runtime.NumGoroutine(); g > baseline+workers+2 {
		t.Fatalf("executor goroutines unbounded: %d (baseline %d, budget %d)", g, baseline, workers)
	}
	wg.Wait()
	if nq := pool.AsyncBacklog(); nq != 0 {
		t.Fatalf("async backlog = %d after all callbacks, want 0", nq)
	}
}
