package core_test

import (
	"context"
	"testing"

	"revtr/internal/core"
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
