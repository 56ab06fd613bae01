package probe_test

import (
	"context"
	"reflect"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
	"revtr/internal/simtest"
)

func newRetryPool(env *simtest.Env, workers int, pol probe.RetryPolicy) *probe.Pool {
	clock := measure.NewClock()
	clock.Set(1_000_000)
	p := probe.New(env.Fabric, clock, workers)
	p.SetRetry(pol)
	return p
}

// An answered probe is never retried: on a fault-free fabric every ping
// to a responsive host lands on the first attempt, so the pool's sent
// counters equal exactly one probe per request even with retries armed.
func TestRetryNotUsedWhenAnswered(t *testing.T) {
	env := simtest.New(t, 150, 3)
	src := env.Agent(env.SourceHost(0))
	var reqs []probe.Request
	for i := 0; i < 8; i++ {
		dst := env.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		reqs = append(reqs, probe.Request{Kind: measure.KindPing, VP: src, Dst: dst.Addr})
	}
	pool := newRetryPool(env, 4, probe.RetryPolicy{Max: 3})
	reg := obs.New()
	pool.SetObs(reg)
	b := pool.Do(context.Background(), reqs)
	for i, rep := range b.Replies {
		if !rep.Ping.Alive {
			t.Fatalf("req %d: responsive host did not answer", i)
		}
	}
	if got := pool.Counters().Total(); got != uint64(len(reqs)) {
		t.Fatalf("pool issued %d probes for %d answered requests (retried needlessly)", got, len(reqs))
	}
	if b.Sent.Total() != uint64(len(reqs)) {
		t.Fatalf("batch.Sent=%d, want %d", b.Sent.Total(), len(reqs))
	}
}

// An unanswered probe is re-issued Max times and every attempt is
// charged to the accounting, batch and pool alike.
func TestRetryExhaustsBudgetOnSilence(t *testing.T) {
	env := simtest.New(t, 150, 3)
	src := env.Agent(env.SourceHost(0))
	dst := env.ResponsiveHost(0, src.AS)
	if dst == nil {
		t.Skip("no destination")
	}
	// Dark neighbor address: routed to the destination's block, never
	// answers — each attempt fails, so retries run to exhaustion.
	dark := dst.Addr + 199
	const n, maxRetries = 5, 3
	var reqs []probe.Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, probe.Request{Kind: measure.KindPing, VP: src, Dst: dark, Seq: uint64(i + 1)})
	}
	pool := newRetryPool(env, 4, probe.RetryPolicy{Max: maxRetries})
	reg := obs.New()
	pool.SetObs(reg)
	b := pool.Do(context.Background(), reqs)
	want := uint64(n * (maxRetries + 1))
	if got := pool.Counters().Total(); got != want {
		t.Fatalf("pool issued %d probes, want %d (%d requests x %d attempts)", got, want, n, maxRetries+1)
	}
	if got := b.Sent.Total(); got != want {
		t.Fatalf("batch.Sent=%d, want %d", got, want)
	}
	if got := reg.Counter("probe_retries_total").Value(); got != uint64(n*maxRetries) {
		t.Fatalf("probe_retries_total=%d, want %d", got, n*maxRetries)
	}
}

// Probes that were never sent (spoof-incapable vantage point) must not
// be retried — the condition is not transient.
func TestRetrySkipsUnsent(t *testing.T) {
	env := simtest.New(t, 150, 3)
	src := env.Agent(env.SourceHost(0))
	var vp measure.Agent
	for _, site := range env.Sites {
		if !site.CanSpoof && site.Addr != src.Addr {
			vp = site
			break
		}
	}
	if vp.Addr == 0 {
		t.Skip("no spoof-incapable site in this topology seed")
	}
	reqs := []probe.Request{{Kind: measure.KindSpoofedRR, VP: vp, Src: src.Addr, Dst: src.Addr, Seq: 1}}
	pool := newRetryPool(env, 1, probe.RetryPolicy{Max: 5})
	b := pool.Do(context.Background(), reqs)
	if b.Replies[0].Sent {
		t.Fatal("spoof-incapable vantage point sent a spoofed probe")
	}
	if got := pool.Counters().Total(); got != 0 {
		t.Fatalf("pool charged %d probes for an unsent request", got)
	}
}

// Under a lossy fault plan retries fire, and the whole batch — replies
// and accounting — stays bit-identical across worker counts, because
// retry decisions depend only on reply content and virtual time.
func TestRetryDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		plan := &faults.Plan{Seed: uint64(seed), LinkLoss: 0.3}
		env := simtest.NewFaulty(t, 150, seed, plan)
		reqs := buildRequests(env, 40)
		if len(reqs) == 0 {
			t.Fatalf("seed %d: no requests", seed)
		}
		pol := probe.RetryPolicy{Max: 2}

		run := func(workers int) ([]measure.Reply, measure.Counters, uint64) {
			pool := newRetryPool(env, workers, pol)
			b := pool.Do(context.Background(), reqs)
			return b.Replies, b.Sent, pool.Counters().Total()
		}
		r1, s1, c1 := run(1)
		r8, s8, c8 := run(8)
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("seed %d: replies differ between workers=1 and workers=8", seed)
		}
		if s1 != s8 || c1 != c8 {
			t.Fatalf("seed %d: accounting differs: batch %+v vs %+v, pool %d vs %d", seed, s1, s8, c1, c8)
		}
		if c1 < uint64(len(reqs)) {
			t.Fatalf("seed %d: pool issued %d probes for %d requests", seed, c1, len(reqs))
		}
	}
}

// A retried reply that eventually lands carries the cumulative backoff
// in its RTT, so batch wall-clock accounts for time spent waiting.
func TestRetryChargesBackoffToRTT(t *testing.T) {
	env := simtest.New(t, 150, 3)
	src := env.Agent(env.SourceHost(0))
	dst := env.ResponsiveHost(0, src.AS)
	if dst == nil {
		t.Skip("no destination")
	}
	req := probe.Request{Kind: measure.KindPing, VP: src, Dst: dst.Addr, Seq: 1}

	base := newRetryPool(env, 1, probe.RetryPolicy{})
	clean := base.Do(context.Background(), []probe.Request{req})
	baseRTT := clean.Replies[0].Ping.RTTUS

	// LinkLoss=1 on the plan would kill every attempt; instead find a
	// plan seed where the first attempt drops and a retry succeeds.
	pol := probe.RetryPolicy{Max: 6}
	for planSeed := uint64(1); planSeed < 60; planSeed++ {
		fenv := simtest.NewFaulty(t, 150, 3, &faults.Plan{Seed: planSeed, LinkLoss: 0.5})
		pool := newRetryPool(fenv, 1, pol)
		b := pool.Do(context.Background(), []probe.Request{req})
		rep := b.Replies[0]
		if !rep.Ping.Alive {
			continue // every attempt dropped under this seed
		}
		if pool.Counters().Total() == 1 {
			continue // first attempt got through; no backoff to observe
		}
		if rep.Ping.RTTUS <= baseRTT {
			t.Fatalf("plan seed %d: retried reply RTT %dus does not include backoff (clean RTT %dus)",
				planSeed, rep.Ping.RTTUS, baseRTT)
		}
		return
	}
	t.Skip("no plan seed produced a drop-then-answer sequence")
}

// A zero-length batch is a no-op: no probes, no panics, zero counters.
func TestRetryZeroLengthBatch(t *testing.T) {
	env := simtest.New(t, 150, 3)
	pool := newRetryPool(env, 4, probe.RetryPolicy{Max: 3})
	b := pool.Do(context.Background(), nil)
	if len(b.Replies) != 0 || b.Sent.Total() != 0 || b.Skipped != 0 {
		t.Fatalf("empty batch produced %+v", b)
	}
	if pool.Counters().Total() != 0 {
		t.Fatal("empty batch charged probes")
	}
}

// Every probe kind that can go unanswered is retried until it lands, and
// the landing reply carries the backoff in whichever RTT it answers with
// (echo, Record Route, Timestamp, traceroute hop). The pool's first
// attempt is reproduced with measure.Issue at the same instant, so a
// request whose first attempt was silent and whose final reply answers
// is exactly one the pool retried.
func TestRetryEveryKindChargesBackoff(t *testing.T) {
	const nowUS = 1_000_000
	seen := map[string]bool{}
	for planSeed := uint64(1); planSeed <= 16 && len(seen) < 4; planSeed++ {
		env := simtest.NewFaulty(t, 150, 3, &faults.Plan{Seed: planSeed, LinkLoss: 0.4})
		reqs := buildRequests(env, 60)
		// Timestamp probes answer with the option only when they carry a
		// prespecified address list.
		src := env.Agent(env.SourceHost(0))
		for i := 0; i < 8; i++ {
			dst := env.ResponsiveHost(i, src.AS)
			if dst == nil {
				break
			}
			prespec := []ipv4.Addr{dst.Addr}
			reqs = append(reqs, probe.Request{Kind: measure.KindTS, VP: src, Dst: dst.Addr, Prespec: prespec, Seq: 1})
			for _, site := range env.Sites {
				if site.CanSpoof && site.Addr != src.Addr {
					reqs = append(reqs, probe.Request{Kind: measure.KindSpoofedTS, VP: site, Src: src.Addr,
						Dst: dst.Addr, Prespec: prespec, Seq: 1})
				}
			}
		}
		pool := newRetryPool(env, 2, probe.RetryPolicy{Max: 4})
		b := pool.Do(context.Background(), reqs)
		for i, got := range b.Replies {
			first := measure.Issue(env.Fabric, reqs[i], nowUS)
			if !first.Sent || first.RTTUS() != 0 || got.RTTUS() == 0 {
				continue
			}
			if got.RTTUS() < probe.DefaultBackoffUS {
				t.Fatalf("seed %d req %d (kind %d): retried reply RTT %dus lacks the %dus backoff",
					planSeed, i, reqs[i].Kind, got.RTTUS(), probe.DefaultBackoffUS)
			}
			switch {
			case got.Ping.Alive:
				seen["echo"] = true
			case got.RR.Responded:
				seen["rr"] = true
			case got.TS.Responded:
				seen["ts"] = true
			case got.Hop.Responded:
				seen["hop"] = true
			}
		}
	}
	if len(seen) < 4 {
		t.Fatalf("retried-then-answered replies seen only as %v", seen)
	}
}

// A vantage point that goes dark between attempts ends the retries: the
// re-issue is not sent, not charged, and the batch keeps the first
// attempt's reply. One that is dark from the start sends nothing, and
// CanSend says so beforehand without recording a suppressed probe.
func TestRetryStopsWhenVPGoesDark(t *testing.T) {
	const nowUS = 1_000_000
	env := simtest.New(t, 150, 3)
	src := env.Agent(env.SourceHost(0))
	gone := env.Agent(env.SourceHost(1))
	dst := env.ResponsiveHost(0, src.AS)
	if dst == nil {
		t.Skip("no destination")
	}
	plan := (&faults.Plan{}).AddBlackout(src.Addr, nowUS+1, 0).AddBlackout(gone.Addr, 0, 0)
	env.Fabric.SetFaults(plan)
	reqs := []probe.Request{
		{Kind: measure.KindPing, VP: gone, Dst: dst.Addr, Seq: 1},
		{Kind: measure.KindPing, VP: src, Dst: dst.Addr + 199, Seq: 2}, // dark neighbour: never answers
	}
	pool := newRetryPool(env, 1, probe.RetryPolicy{Max: 3})
	if pool.CanSend(gone.Addr) || !pool.CanSend(src.Addr) || plan.Count(faults.KindBlackout) != 0 {
		t.Fatalf("CanSend: dark %v, not yet dark %v, %d blackouts recorded; want false, true, 0",
			pool.CanSend(gone.Addr), pool.CanSend(src.Addr), plan.Count(faults.KindBlackout))
	}
	reg := obs.New()
	pool.SetObs(reg)
	b := pool.Do(context.Background(), reqs)
	if b.Replies[0].Sent || !b.Replies[0].VPDead {
		t.Fatalf("dark vantage point: reply %+v, want unsent and VPDead", b.Replies[0])
	}
	if !b.Replies[1].Sent || b.Replies[1].Ping.Alive {
		t.Fatalf("silent probe: reply %+v, want sent and unanswered", b.Replies[1])
	}
	if got := b.Sent.Total(); got != 1 {
		t.Fatalf("batch charged %d probes, want the one first attempt", got)
	}
	if got := pool.Counters().Total(); got != 1 {
		t.Fatalf("pool charged %d probes, want 1", got)
	}
	if got := reg.Counter("probe_retries_total").Value(); got != 1 {
		t.Fatalf("probe_retries_total=%d, want the one re-issue that found the VP dark", got)
	}
}
