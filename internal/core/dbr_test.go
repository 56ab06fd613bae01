package core_test

import (
	"context"

	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/simtest"
)

// dbrHarness builds an engine over a topology with a chosen
// destination-based-routing violator fraction.
func dbrHarness(t *testing.T, violatorP float64, opts core.Options) (*simtest.Env, *core.Engine, core.Source) {
	t.Helper()
	cfg := topology.DefaultConfig(300)
	cfg.Seed = 23
	cfg.DBRViolatorP = violatorP
	env := simtest.NewWithConfig(t, cfg)
	ing := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 23)
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
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, 25, true, 23)
	src := core.Source{Agent: srcAgent, Atlas: svc.BuildFor(srcAgent)}
	eng := core.NewEngine(env.Fabric, env.Pool, ing, env.Sites, env.Alias,
		ip2as.Origin{Topo: env.Topo}, nil, opts)
	return env, eng, src
}

func countDBRSuspects(env *simtest.Env, eng *core.Engine, src core.Source, n int) (suspects, hops int) {
	for i := 0; i < n*3 && hops < 1000; i++ {
		dst := env.ResponsiveHost(i, src.Agent.AS)
		if dst == nil {
			break
		}
		res := eng.MeasureReverse(context.Background(), src, dst.Addr)
		for _, h := range res.Hops {
			hops++
			if h.DBRSuspect {
				suspects++
			}
		}
	}
	return suspects, hops
}

// TestDBRDetectionFindsViolators: with half the routers violating
// destination-based routing, the Appendix E redundancy must flag some
// hops; with zero violators (and no per-packet balancers) it must flag
// none.
func TestDBRDetectionFindsViolators(t *testing.T) {
	opts := core.Revtr20Options()
	opts.DetectDBRViolations = true

	env, eng, src := dbrHarness(t, 0.5, opts)
	suspects, hops := countDBRSuspects(env, eng, src, 60)
	t.Logf("violator-heavy: %d/%d hops flagged", suspects, hops)
	if suspects == 0 {
		t.Error("no DBR suspects flagged despite 50% violator routers")
	}

	cfgClean := topology.DefaultConfig(300)
	cfgClean.Seed = 23
	cfgClean.DBRViolatorP = 0
	cfgClean.PerPacketLBP = 0
	envC := simtest.NewWithConfig(t, cfgClean)
	_ = envC // clean-topology flagging is covered via the harness below
	env2, eng2, src2 := dbrHarnessClean(t, opts)
	suspects2, hops2 := countDBRSuspects(env2, eng2, src2, 60)
	t.Logf("clean: %d/%d hops flagged", suspects2, hops2)
	if suspects2 > 0 {
		t.Errorf("%d false DBR suspects on a violator-free topology", suspects2)
	}
}

func dbrHarnessClean(t *testing.T, opts core.Options) (*simtest.Env, *core.Engine, core.Source) {
	t.Helper()
	cfg := topology.DefaultConfig(300)
	cfg.Seed = 23
	cfg.DBRViolatorP = 0
	cfg.PerPacketLBP = 0
	env := simtest.NewWithConfig(t, cfg)
	ing := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 23)
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
		}
		return out
	})
	srcAgent := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, 25, true, 23)
	src := core.Source{Agent: srcAgent, Atlas: svc.BuildFor(srcAgent)}
	eng := core.NewEngine(env.Fabric, env.Pool, ing, env.Sites, env.Alias,
		ip2as.Origin{Topo: env.Topo}, nil, opts)
	return env, eng, src
}

// TestDBRDetectionCostsProbes: the option must consume extra RR probes
// (that is the paper's stated trade).
func TestDBRDetectionCostsProbes(t *testing.T) {
	base := core.Revtr20Options()
	withDet := base
	withDet.DetectDBRViolations = true

	env, eng, src := dbrHarness(t, 0.1, base)
	var plain, detect uint64
	for i := 0; i < 20; i++ {
		dst := env.ResponsiveHost(i, src.Agent.AS)
		if dst == nil {
			break
		}
		res := eng.MeasureReverse(context.Background(), src, dst.Addr)
		plain += res.Probes.RR + res.Probes.SpoofRR
	}
	engD := core.NewEngine(env.Fabric, env.Pool, eng.Ingress, env.Sites, env.Alias,
		ip2as.Origin{Topo: env.Topo}, nil, withDet)
	for i := 0; i < 20; i++ {
		dst := env.ResponsiveHost(i, src.Agent.AS)
		if dst == nil {
			break
		}
		res := engD.MeasureReverse(context.Background(), src, dst.Addr)
		detect += res.Probes.RR + res.Probes.SpoofRR
	}
	t.Logf("RR probes: plain=%d detect=%d", plain, detect)
	if detect <= plain {
		t.Errorf("DBR detection did not cost extra probes (%d <= %d)", detect, plain)
	}
}

// TestDBRFallbackIsASpoofedBatch: the spoofed probes the redundancy check
// falls back to are a spoofed batch like any other — counted in
// SpoofBatches and made to wait like one: out the timeout when a reply is
// missing, until the last reply otherwise. (They used to be charged the
// batch's largest RTT whatever came back and not counted, though the
// pending was marked Spoofed.) Driven by hand, every spoofed delivery
// classed as it goes by: DurationUS is at least a timeout per batch short
// of a reply plus the slowest round trip of each complete one.
func TestDBRFallbackIsASpoofedBatch(t *testing.T) {
	opts := core.Revtr20Options()
	opts.DetectDBRViolations = true
	env, eng, src := dbrHarness(t, 0.1, opts)
	var all waitLedger                               // every spoofed batch
	fb := waitLedger{timeoutUS: opts.SpoofTimeoutUS} // the fallbacks alone
	for i := 0; i < 40; i++ {
		dst := env.ResponsiveHost(i, src.Agent.AS)
		if dst == nil {
			break
		}
		l := waitLedger{timeoutUS: opts.SpoofTimeoutUS}
		afterRepeats := false
		res := driveSeeing(context.Background(), eng, src, dst.Addr, func(p *core.Pending, d core.Delivery) {
			l.see(p, d)
			if p.Spoofed && afterRepeats {
				fb.see(p, d)
			}
			// The redundancy check's direct repeats are the only direct
			// batch of more than one request.
			afterRepeats = !p.Spoofed && len(p.Reqs) > 1
		})
		spoofed := l.complete + l.short
		if res.SpoofBatches != spoofed {
			t.Errorf("dst %s: SpoofBatches = %d, the measurement suspended on %d spoofed batches", dst.Addr, res.SpoofBatches, spoofed)
		}
		if floor := l.spoofWaitUS(); res.DurationUS < floor {
			t.Errorf("dst %s: DurationUS = %d, below the %d that %d batches short of a reply and %d complete ones waited",
				dst.Addr, res.DurationUS, floor, l.short, l.complete)
		}
		all.add(l)
	}
	t.Logf("spoofed batches: %d complete, %d short of a reply; of them fallbacks: %d complete, %d short",
		all.complete, all.short, fb.complete, fb.short)
	if fb.complete+fb.short == 0 {
		t.Fatal("no redundancy check fell back to spoofed probes: the test exercises nothing")
	}
	if all.complete == 0 || all.short == 0 {
		t.Fatalf("spoofed batches: %d complete, %d short of a reply; want some of each", all.complete, all.short)
	}
}
