package probe_test

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"revtr/internal/measure"
	"revtr/internal/obs"
	"revtr/internal/probe"
	"revtr/internal/simtest"
)

// buildRequests assembles a mixed batch over env: direct pings, RR pings,
// spoofed RR from every site (spoof-capable or not), TS probes, and raw
// traceroute packets, salted alike as one measurement's — the same specs a
// serial caller and the pool both see.
func buildRequests(env *simtest.Env, n int) []probe.Request {
	const salt = 1
	src := env.Agent(env.SourceHost(0))
	var reqs []probe.Request
	for i := 0; len(reqs) < n; i++ {
		dst := env.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		reqs = append(reqs,
			probe.Request{Kind: measure.KindPing, VP: src, Dst: dst.Addr, Seq: salt},
			probe.Request{Kind: measure.KindRR, VP: src, Dst: dst.Addr, Seq: salt},
			probe.Request{Kind: measure.KindTS, VP: src, Dst: dst.Addr, Seq: salt},
			probe.Request{Kind: measure.KindTraceroutePkt, VP: src, Dst: dst.Addr,
				TTL: uint8(1 + i%8), Seq: salt},
		)
		for _, site := range env.Sites {
			if site.Addr == src.Addr {
				continue
			}
			reqs = append(reqs, probe.Request{
				Kind: measure.KindSpoofedRR, VP: site, Src: src.Addr,
				Dst: dst.Addr, Seq: salt,
			})
			if len(reqs) >= n {
				break
			}
		}
	}
	return reqs
}

// TestPoolMatchesSerialQuick is the determinism property: executing a
// batch through the pool (concurrently, any worker count) yields
// byte-identical replies and identical counters to issuing the same specs
// serially, across randomized topologies and worker counts.
func TestPoolMatchesSerialQuick(t *testing.T) {
	prop := func(seed int64, workerBits uint8) bool {
		seed = seed&0xffff | 1
		workers := int(workerBits%16) + 1
		env := simtest.New(t, 150, seed)
		reqs := buildRequests(env, 48)
		if len(reqs) == 0 {
			return true
		}
		const nowUS = int64(1_000_000)

		// Serial reference: one measure.Issue per spec at one instant.
		serial := make([]measure.Reply, len(reqs))
		var want measure.Counters
		for i, sp := range reqs {
			serial[i] = measure.Issue(env.Fabric, sp, nowUS)
			if serial[i].Sent {
				want = want.Add(sp.Delta())
			}
		}

		clock := measure.NewClock()
		clock.Set(nowUS)
		pool := probe.New(env.Fabric, clock, workers)
		b := pool.Do(context.Background(), reqs)

		if !reflect.DeepEqual(b.Replies, serial) {
			t.Logf("seed=%d workers=%d: replies diverge", seed, workers)
			return false
		}
		if b.Sent != want {
			t.Logf("seed=%d workers=%d: counters %+v != %+v", seed, workers, b.Sent, want)
			return false
		}
		if b.Skipped != 0 {
			t.Logf("seed=%d: skipped %d of an uncancelled batch", seed, b.Skipped)
			return false
		}
		if pool.Counters() != want {
			t.Logf("seed=%d: pool counters %+v != %+v", seed, pool.Counters(), want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRepeatable: the same batch through the same fabric twice gives
// the same replies — probe identities are pure functions of the specs, not
// of pool state.
func TestPoolRepeatable(t *testing.T) {
	env := simtest.New(t, 150, 3)
	reqs := buildRequests(env, 24)
	pool := probe.New(env.Fabric, measure.NewClock(), 4)
	b1 := pool.Do(context.Background(), reqs)
	b2 := pool.Do(context.Background(), reqs)
	if !reflect.DeepEqual(b1.Replies, b2.Replies) {
		t.Fatal("identical batches diverged")
	}
	if b1.Sent != b2.Sent || b1.MaxRTTUS != b2.MaxRTTUS {
		t.Fatalf("batch accounting diverged: %+v vs %+v", b1, b2)
	}
}

// TestPoolCancellation: a cancelled context skips the whole batch and the
// traceroute path returns zero values without probing.
func TestPoolCancellation(t *testing.T) {
	env := simtest.New(t, 150, 7)
	reqs := buildRequests(env, 8)
	pool := probe.New(env.Fabric, measure.NewClock(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	b := pool.Do(ctx, reqs)
	if b.Skipped != len(reqs) {
		t.Fatalf("skipped = %d, want %d", b.Skipped, len(reqs))
	}
	if b.Sent != (measure.Counters{}) || b.MaxRTTUS != 0 {
		t.Fatalf("cancelled batch accounted probes: %+v", b)
	}

	src := env.Agent(env.SourceHost(0))
	if tr, sent := pool.Traceroute(ctx, src, env.ResponsiveHost(0, src.AS).Addr, 0, 1, nil, nil); sent != 0 || len(tr.Hops) != 0 {
		t.Fatal("Traceroute probed on a cancelled context")
	}
	if pool.Counters() != (measure.Counters{}) {
		t.Fatalf("cancelled pool accounted probes: %+v", pool.Counters())
	}
}

// TestPoolObs: SetObs wires the batch counter/histograms and the in-flight
// gauge returns to zero after the batch drains.
func TestPoolObs(t *testing.T) {
	env := simtest.New(t, 150, 9)
	reqs := buildRequests(env, 6)
	pool := probe.New(env.Fabric, measure.NewClock(), 3)
	reg := obs.New()
	pool.SetObs(reg)
	pool.Do(context.Background(), reqs)
	if got := reg.Counter("probe_pool_batches_total").Value(); got != 1 {
		t.Fatalf("batches counter = %d, want 1", got)
	}
	if reg.Histogram("probe_pool_batch_size", nil).Count() != 1 {
		t.Fatal("batch size histogram not observed")
	}
	if got := reg.Gauge("probe_pool_inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", got)
	}
}

// TestPoolZeroConfig: New with no worker count and no clock still gives
// a working pool — its own clock at zero, no retry policy — and SetObs
// with no registry leaves it unmetered.
func TestPoolZeroConfig(t *testing.T) {
	env := simtest.New(t, 150, 3)
	pool := probe.New(env.Fabric, nil, 0)
	pool.SetObs(nil)
	if pool.Clock() == nil || pool.Now() != 0 {
		t.Fatalf("clock %v at %d, want a fresh clock at 0", pool.Clock(), pool.Now())
	}
	if pool.Retry() != (probe.RetryPolicy{}) {
		t.Fatalf("retry policy %+v, want none", pool.Retry())
	}
	reqs := buildRequests(env, 6)
	if b := pool.Do(context.Background(), reqs); b.Sent.Total() == 0 || b.Skipped != 0 {
		t.Fatalf("zero-config pool batch %+v", b)
	}
}
