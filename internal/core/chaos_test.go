package core_test

// Chaos suite: the engine under a deterministic fault plan — random link
// loss, ICMP rate limiting, route flaps, and vantage-point blackouts —
// must not panic, must keep probe accounting consistent, must stay
// bit-identical across worker counts, and must degrade monotonically
// (never hang) as loss climbs. Run with -race; `make chaos` does.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/dynamics"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
	"revtr/internal/simtest"
)

// chaosEnv builds the full measurement stack over a healthy fabric —
// the ingress survey and atlas are measured fault-free, mirroring the
// binaries where faults attach after Build — and returns the pieces a
// chaos test needs to attach its own plan and engines.
type chaosEnv struct {
	env  *simtest.Env
	ing  *ingress.Service
	src  core.Source
	dsts []ipv4.Addr
}

func newChaosEnv(t testing.TB, seed int64, nDsts int) *chaosEnv {
	t.Helper()
	env := simtest.New(t, 300, seed)
	ing := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 8)
	ing.Survey(env.Topo.AllBGPPrefixes(), func(pfx ipv4.Prefix) []ipv4.Addr {
		asn, ok := env.Topo.BlockAS(pfx.Addr)
		if !ok {
			return nil
		}
		var out []ipv4.Addr
		if pfx.Bits == 24 {
			for _, hid := range env.Topo.ASes[asn].Hosts {
				h := &env.Topo.Hosts[hid]
				if pfx.Contains(h.Addr) && h.PingResponsive {
					out = append(out, h.Addr)
					if len(out) == 2 {
						break
					}
				}
			}
		} else {
			for _, rid := range env.Topo.ASes[asn].Routers {
				r := env.Topo.Routers[rid]
				if r.RespondsToPing && r.RespondsToOptions {
					out = append(out, r.Loopback)
					if len(out) == 2 {
						break
					}
				}
			}
		}
		return out
	})
	srcAgent := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 25, 8)
	src := core.Source{Agent: srcAgent, Atlas: svc.BuildFor(srcAgent)}

	var dsts []ipv4.Addr
	for i := 0; len(dsts) < nDsts; i++ {
		d := env.ResponsiveHost(i*2, srcAgent.AS)
		if d == nil {
			break
		}
		dsts = append(dsts, d.Addr)
	}
	if len(dsts) == 0 {
		t.Fatal("no destinations")
	}
	return &chaosEnv{env: env, ing: ing, src: src, dsts: dsts}
}

// engine builds a fresh engine (own cache, own pool with the given
// worker count) over the environment's fabric and shared clock.
func (c *chaosEnv) engine(workers int, pol probe.RetryPolicy) (*core.Engine, *probe.Pool) {
	return c.engineOpts(workers, pol, core.Revtr20Options())
}

// engineOpts is engine with explicit engine options.
func (c *chaosEnv) engineOpts(workers int, pol probe.RetryPolicy, o core.Options) (*core.Engine, *probe.Pool) {
	pool := probe.New(c.env.Fabric, c.env.Pool.Clock(), workers)
	pool.SetRetry(pol)
	eng := core.NewEngine(c.env.Fabric, pool, c.ing, c.env.Sites, c.env.Alias,
		ip2as.Origin{Topo: c.env.Topo}, nil, o)
	return eng, pool
}

// renderCoreResult flattens a result into a comparable string: status,
// probe counters, and every hop address and technique in order.
func renderCoreResult(res *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v sym=%d probes=%+v", res.Status, res.SymAssumed, res.Probes)
	for _, h := range res.Hops {
		fmt.Fprintf(&sb, " %s/%v", h.Addr, h.Tech)
	}
	return sb.String()
}

// TestChaosAccountingConsistent: across seeds and loss levels, the sum
// of per-measurement probe budgets equals the pool's aggregate counters
// — retries, rate-limited drops, and VP failovers are all charged in
// exactly one place. Also the basic no-panic/no-hang smoke.
func TestChaosAccountingConsistent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, loss := range []float64{0.02, 0.2} {
			t.Run(fmt.Sprintf("seed%d/loss%g", seed, loss), func(t *testing.T) {
				c := newChaosEnv(t, seed, 8)
				c.env.Fabric.SetFaults(&faults.Plan{
					Seed: uint64(seed), LinkLoss: loss, ICMPFrac: 0.3, ICMPPass: 0.5,
				})
				eng, pool := c.engine(4, probe.RetryPolicy{Max: 2})
				var sum measure.Counters
				for _, dst := range c.dsts {
					res := eng.MeasureReverse(context.Background(), c.src, dst)
					if res.Status != core.StatusComplete && res.Status != core.StatusAborted &&
						res.Status != core.StatusFailed {
						t.Fatalf("dst %s: invalid status %v", dst, res.Status)
					}
					sum = sum.Add(res.Probes)
				}
				if got := pool.Counters(); got != sum {
					t.Fatalf("accounting drift: pool issued %+v, measurements charged %+v", got, sum)
				}
			})
		}
	}
}

// TestChaosWorkerBitIdentity: under one fixed fault plan, the full
// per-destination results (status, hops, techniques, probe budgets) are
// bit-identical between a serial engine and an 8-worker engine. Fault
// decisions are pure functions of (plan seed, entity, virtual time,
// nonce), so concurrency must not leak into outcomes.
func TestChaosWorkerBitIdentity(t *testing.T) {
	for _, seed := range []int64{2, 5} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := newChaosEnv(t, seed, 8)
			c.env.Fabric.SetFaults(&faults.Plan{
				Seed: 99, LinkLoss: 0.15, ICMPFrac: 0.4, ICMPPass: 0.4, FlapFrac: 0.05,
			})
			pol := probe.RetryPolicy{Max: 2}
			run := func(workers int) []string {
				eng, _ := c.engine(workers, pol)
				out := make([]string, len(c.dsts))
				for i, dst := range c.dsts {
					res := eng.MeasureReverse(context.Background(), c.src, dst)
					out[i] = renderCoreResult(res)
				}
				return out
			}
			serial, parallel := run(1), run(8)
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Errorf("dst %s diverged:\n  workers=1: %s\n  workers=8: %s",
						c.dsts[i], serial[i], parallel[i])
				}
			}
		})
	}
}

// TestChaosMonotoneCompletion: completions aggregated over seeds must
// not increase as loss climbs, and even at 95%% loss every measurement
// still terminates with a valid status (graceful degradation, no hangs).
func TestChaosMonotoneCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-level sweep")
	}
	losses := []float64{0, 0.25, 0.6, 0.95}
	complete := make([]int, len(losses))
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 6)
		for li, loss := range losses {
			c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: loss})
			eng, _ := c.engine(4, probe.RetryPolicy{Max: 1})
			for _, dst := range c.dsts {
				res := eng.MeasureReverse(context.Background(), c.src, dst)
				if res.Status == core.StatusComplete {
					complete[li]++
				}
			}
		}
	}
	t.Logf("completions by loss level %v: %v", losses, complete)
	if complete[0] == 0 {
		t.Fatal("nothing completed even fault-free")
	}
	for i := 1; i < len(complete); i++ {
		if complete[i] > complete[i-1] {
			t.Errorf("completions rose from %d to %d as loss climbed %g -> %g",
				complete[i-1], complete[i], losses[i-1], losses[i])
		}
	}
}

// TestChaosVPFailoverDegrades: with every spoof-capable non-source site
// blacked out, spoofed stages hit dead vantage points; the engine must
// record failovers, never charge dead VPs to the budget, and still
// finish every measurement. The engine-level dead-VP cache means each
// dead site fails over at most once per engine — before it existed,
// every measurement re-probed every blacked-out site, so two sweeps
// over 10 destinations recorded ~20x len(Blackouts) failovers and this
// test's repetition bound fails.
func TestChaosVPFailoverDegrades(t *testing.T) {
	c := newChaosEnv(t, 8, 10)
	plan := &faults.Plan{}
	for _, site := range c.env.Sites {
		if site.CanSpoof && site.Addr != c.src.Agent.Addr {
			plan.AddBlackout(site.Addr, 0, 0)
		}
	}
	if len(plan.Blackouts) == 0 {
		t.Skip("no spoof-capable non-source sites in this seed")
	}
	c.env.Fabric.SetFaults(plan)
	eng, _ := c.engine(4, probe.RetryPolicy{})
	reg := obs.New()
	eng.SetMetrics(core.NewMetrics(reg))
	for pass := 0; pass < 2; pass++ {
		for _, dst := range c.dsts {
			res := eng.MeasureReverse(context.Background(), c.src, dst)
			if res.Status != core.StatusComplete && res.Status != core.StatusAborted &&
				res.Status != core.StatusFailed {
				t.Fatalf("pass %d dst %s: invalid status %v", pass, dst, res.Status)
			}
		}
	}
	failovers := reg.Counter("vp_failover_total").Value()
	spoofBatches := reg.Counter("engine_spoof_batches_total").Value()
	deadHits := reg.Counter("engine_dead_vp_hits_total").Value()
	if spoofBatches > 0 && failovers == 0 {
		t.Fatalf("%d spoofed batches ran against all-dead vantage points without a recorded failover", spoofBatches)
	}
	if spoofBatches == 0 {
		t.Skip("no measurement reached a spoofed stage under this seed")
	}
	// Serially issued batches are built after every prior delivery has
	// been absorbed, and the virtual clock stands still for the test, so no
	// mark expires: a site can be caught dead at most once across the
	// engine's whole lifetime.
	if failovers > uint64(len(plan.Blackouts)) {
		t.Fatalf("failover probes repeated: %d failovers recorded for %d blacked-out sites over %d measurements",
			failovers, len(plan.Blackouts), 2*len(c.dsts))
	}
	if failovers > 0 && deadHits == 0 {
		t.Fatalf("sites failed over but no later measurement skipped them via the shared dead-VP cache")
	}
	t.Logf("vp failovers: %d over %d spoofed batches, %d dead-VP cache skips",
		failovers, spoofBatches, deadHits)
}

// splicedWrong classifies a result's memoized suffix against *current*
// ground truth: did the measurement splice at all, and if so, does any
// spliced hop lie off every present forward router path from the splice
// anchor back to the source? A few ECMP flows are unioned so per-flow
// load balancing is not mistaken for staleness; private hops, host
// addresses, and unresolvable hops carry no router-level claim.
func splicedWrong(env *simtest.Env, srcAddr ipv4.Addr, res *core.Result) (spliced, wrong bool) {
	first := -1
	for i, h := range res.Hops {
		if h.Spliced {
			first = i
			break
		}
	}
	if first <= 0 {
		return false, false
	}
	start := res.Hops[first-1].Addr
	r, ok := env.Topo.RouterOf(start)
	if !ok {
		// Splices anchored at the destination itself start from a host
		// address; the claim is then about the path from its gateway.
		host, hok := env.Topo.HostOf(start)
		if !hok {
			return true, false
		}
		r = host.Router
	}
	onPath := map[ipv4.Addr]bool{srcAddr: true}
	for flow := uint64(0); flow < 4; flow++ {
		for _, tr := range env.Fabric.ForwardRouterPath(r, srcAddr, start, flow) {
			for _, a := range env.Topo.Aliases(tr) {
				onPath[a] = true
			}
		}
	}
	for _, h := range res.Hops[first:] {
		if h.Addr.IsPrivate() {
			continue
		}
		if _, isHost := env.Topo.HostOf(h.Addr); isHost {
			continue
		}
		if !onPath[h.Addr] {
			return true, true
		}
	}
	return true, false
}

// TestChaosSegmentStormRecovery: a route-flap storm against a shared
// segment store. During the storm, stale memoized suffixes get spliced
// into wrong paths — that is the staleness window the TTL bounds. The
// engine has an intrinsic wrong-path baseline even on fresh splices
// (symmetry-assumed hops ride inside memoized chains), so every
// assertion is against that measured baseline, not zero:
//
//  1. the storm pushes wrong splices strictly above the baseline;
//  2. once flaps stop, wrong splices never grow round over round while
//     the stale segments live (splicing never refreshes a TTL, and
//     completed paths republish only their freshly measured prefix);
//  3. once a full TTL has elapsed since the last flap, every surviving
//     stale segment has been evicted and re-measured, so wrong splices
//     recover to at most the baseline — while splicing itself keeps
//     working.
func TestChaosSegmentStormRecovery(t *testing.T) {
	c := newChaosEnv(t, 3, 24)
	churn := dynamics.New(c.env.Fabric, 42)
	c.env.Fabric.InvalidateRoutes()
	// The atlas was built before the churn policy was installed; drop it
	// so segment memoization is the only cross-measurement path state.
	src := core.Source{Agent: c.src.Agent}

	const ttl = int64(1) << 40
	o := core.Revtr20Options()
	o.UseCache = false
	o.SegmentStore = segments.New(segments.Options{TTLUS: ttl})
	eng, pool := c.engineOpts(1, probe.RetryPolicy{}, o)

	round := func() (spliced, wrong int) {
		for _, dst := range c.dsts {
			res := eng.MeasureReverse(context.Background(), src, dst)
			s, w := splicedWrong(c.env, src.Agent.Addr, res)
			if s {
				spliced++
			}
			if w {
				wrong++
			}
		}
		return
	}

	// Warm the store, then observe the fresh-segment baseline.
	round()
	splicedWarm, baseline := round()
	if splicedWarm == 0 {
		t.Fatal("no measurement spliced during the warm rounds")
	}
	t.Logf("fresh-splice baseline: %d wrong of %d measurements (%d spliced)",
		baseline, len(c.dsts), splicedWarm)

	// Storm: five flap epochs, measuring between them. Stale splices
	// must push the wrong-path count above the fresh baseline.
	peak := 0
	for i := 0; i < 5; i++ {
		churn.Step(1.0, 60)
		_, w := round()
		if w > peak {
			peak = w
		}
	}
	t.Logf("storm peak: %d wrong-spliced measurements of %d", peak, len(c.dsts))
	if peak <= baseline {
		t.Fatalf("storm never pushed wrong splices (peak %d) above the fresh baseline (%d): staleness undetected",
			peak, baseline)
	}

	// Flaps stop. The set of stale segments is now fixed, so while they
	// live, wrong splices must not grow; as virtual time crosses the TTL
	// (one third per round), they expire and are re-measured against
	// current routes, recovering the baseline. Rounds 2+ start beyond
	// the full TTL window.
	quiet := make([]int, 6)
	splicedLast := 0
	for i := range quiet {
		pool.Clock().Advance(ttl/3 + 1)
		splicedLast, quiet[i] = round()
	}
	t.Logf("quiet rounds wrong-spliced: %v", quiet)
	for i := 1; i < len(quiet); i++ {
		if quiet[i] > peak {
			t.Fatalf("wrong splices grew past the storm peak %d after flaps stopped: %v", peak, quiet)
		}
	}
	for i := 2; i < len(quiet); i++ {
		if quiet[i] > baseline {
			t.Fatalf("quiet round %d (a full TTL after the last flap) still has %d wrong splices, baseline %d: %v",
				i, quiet[i], baseline, quiet)
		}
	}
	if splicedLast == 0 {
		t.Fatal("no splices after TTL expiry: memoization never recovered")
	}
}
