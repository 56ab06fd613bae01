package core_test

import (
	"context"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/netsim/faults"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

// TestBlackoutTracerouteNotCached: while the source is blacked out its
// symmetry-stage traceroute puts nothing on the wire. That empty result
// must not be cached: once the blackout is over, an engine that measured
// through it must get what an engine that never saw it gets. (It used to
// store the empty traceroute under (destination, source) for the cache
// TTL and fail "no penultimate hop" from cache for a day.)
func TestBlackoutTracerouteNotCached(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	const blackoutEndUS = 60_000_000
	c.env.Fabric.SetFaults((&faults.Plan{}).AddBlackout(c.src.Agent.Addr, 0, blackoutEndUS))

	through, _ := c.engine(1, probe.RetryPolicy{})
	reg := obs.New()
	through.SetMetrics(core.NewMetrics(reg))
	for _, dst := range c.dsts {
		through.MeasureReverse(context.Background(), c.src, dst)
	}
	if n := reg.Counter("engine_traceroutes_total").Value(); n != 0 {
		t.Fatalf("%d traceroutes counted as issued from a blacked-out source", n)
	}

	c.env.Pool.Clock().Set(2 * blackoutEndUS) // the blackout is over, the cache TTL (24 h) is not
	after, _ := c.engine(1, probe.RetryPolicy{})
	symAtDst := 0
	for _, dst := range c.dsts {
		want := after.MeasureReverse(context.Background(), c.src, dst)
		got := through.MeasureReverse(context.Background(), c.src, dst)
		if renderCoreResult(got) != renderCoreResult(want) {
			t.Errorf("dst %s after the blackout:\n  engine that measured through it: %s\n  engine that did not:             %s",
				dst, renderCoreResult(got), renderCoreResult(want))
		}
		if len(want.Hops) > 1 && (want.Hops[1].Tech == core.TechSymmetry || want.Hops[1].Tech == core.TechSource) {
			symAtDst++
		}
	}
	if symAtDst == 0 {
		t.Fatal("no destination takes the symmetry stage at its first hop: the test exercises nothing")
	}
	t.Logf("%d of %d destinations traceroute to the destination itself", symAtDst, len(c.dsts))
}

// TestSkipFromBlackedOutSource: a direct probe not sent because the hop is
// out of Record Route's range counts its stage as measured only if the
// source could have sent it. Machines are driven by hand to the first hop a
// stage put more than InRangeHops out; the source then goes dark and the
// stage opens at the sweep, whose replies cannot reach it. That silence is
// the source's outage, not the hop's: no silent verdict and no empty RR
// entry may come of it. (They used to: the skip counted the stage as
// measured whether or not the source could send.)
func TestSkipFromBlackedOutSource(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	clock := c.env.Pool.Clock()
	defer c.env.Fabric.SetFaults(nil)
	cases := 0
	for _, src := range moreSources(c, 4) {
		for _, dst := range c.dsts {
			c.env.Fabric.SetFaults(nil)
			eng, _ := c.engine(1, probe.RetryPolicy{})
			skipped := observe(eng).Counter("engine_rr_direct_skipped_total")
			mm := eng.Begin(context.Background(), src, dst)
			p, cur := mm.Next(), mm.Cursor()
			for ; p != nil; p = mm.Next() {
				mm.Deliver(eng.ExecPending(mm.Context(), p))
				if mm.Cursor() != cur && mm.RevDist() > ingress.InRangeHops {
					break
				}
				cur = mm.Cursor()
			}
			if p == nil {
				continue
			}
			hop, entries, before := mm.Cursor(), eng.CacheEntries(), skipped.Value()
			from := clock.Now() + 1
			c.env.Fabric.SetFaults((&faults.Plan{}).AddBlackout(src.Agent.Addr, from, 0))
			clock.Set(from)
			if p = mm.Next(); skipped.Value() == before {
				continue // the hop intersected the atlas, or its stage fell back at once
			}
			for ; p != nil; p = mm.Next() {
				mm.Deliver(eng.ExecPending(mm.Context(), p))
			}
			if _, silent := eng.Verdicts(hop); silent || eng.CacheEntries() != entries {
				t.Errorf("%s→%s: skipped the direct probe to %s from a blacked-out source: silent verdict %v, cache %d → %d entries",
					src.Agent.Addr, dst, hop, silent, entries, eng.CacheEntries())
			}
			cases++
		}
	}
	if cases == 0 {
		t.Fatal("no stage skipped its direct probe after a reply put its hop out of range: the test exercises nothing")
	}
	t.Logf("%d stages skipped their direct probe from a blacked-out source", cases)
}
