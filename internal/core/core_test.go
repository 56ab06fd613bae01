package core_test

import (
	"context"

	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

// harness assembles an engine over a simtest environment.
type harness struct {
	env *simtest.Env
	ing *ingress.Service
	src core.Source
}

func newHarness(t testing.TB, opts *core.Options) (*harness, *core.Engine) {
	t.Helper()
	env := simtest.New(t, 300, 8)
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

	o := core.Revtr20Options()
	if opts != nil {
		o = *opts
	}
	eng := core.NewEngine(env.Fabric, env.Pool, ing, env.Sites, env.Alias,
		ip2as.Origin{Topo: env.Topo}, nil, o)
	return &harness{env: env, ing: ing, src: src}, eng
}

func TestEngineCompletesSomePaths(t *testing.T) {
	h, eng := newHarness(t, nil)
	done, tried := 0, 0
	for i := 0; tried < 60; i++ {
		dst := h.env.ResponsiveHost(i*2, h.src.Agent.AS)
		if dst == nil {
			break
		}
		tried++
		res := eng.MeasureReverse(context.Background(), h.src, dst.Addr)
		if res.Status == core.StatusComplete {
			done++
			if res.Hops[0].Addr != dst.Addr {
				t.Fatal("first hop is not the destination")
			}
			last := res.Hops[len(res.Hops)-1]
			if last.Addr != h.src.Agent.Addr {
				t.Fatal("last hop is not the source")
			}
		}
	}
	if done == 0 {
		t.Fatalf("no measurements completed (of %d)", tried)
	}
	t.Logf("completed %d/%d", done, tried)
}

func TestEngineUnresponsiveDestinationFails(t *testing.T) {
	h, eng := newHarness(t, nil)
	var dead ipv4.Addr
	for hi := range h.env.Topo.Hosts {
		x := &h.env.Topo.Hosts[hi]
		if !x.PingResponsive && x.AS != h.src.Agent.AS {
			dead = x.Addr
			break
		}
	}
	if dead.IsZero() {
		t.Skip("no unresponsive host")
	}
	res := eng.MeasureReverse(context.Background(), h.src, dead)
	if res.Status == core.StatusComplete {
		// A complete path to an unresponsive destination is only
		// possible via an atlas intersection at the destination itself.
		if res.Hops[1].Tech != core.TechTrIntersect {
			t.Fatal("completed a path to an unresponsive destination without atlas help")
		}
	}
}

func TestEngineSymNeverNeverAssumes(t *testing.T) {
	opts := core.Revtr20Options()
	opts.Symmetry = core.SymNever
	h, eng := newHarness(t, &opts)
	for i := 0; i < 40; i++ {
		dst := h.env.ResponsiveHost(i*3, h.src.Agent.AS)
		if dst == nil {
			break
		}
		res := eng.MeasureReverse(context.Background(), h.src, dst.Addr)
		if res.SymAssumed > 0 {
			t.Fatal("SymNever made an assumption")
		}
		for _, hop := range res.Hops {
			if hop.Tech == core.TechSymmetry {
				t.Fatal("symmetry hop under SymNever")
			}
		}
	}
}

func TestEngineTechniquesAreLabelled(t *testing.T) {
	h, eng := newHarness(t, nil)
	techs := map[core.Technique]int{}
	for i := 0; i < 80; i++ {
		dst := h.env.ResponsiveHost(i, h.src.Agent.AS)
		if dst == nil {
			break
		}
		res := eng.MeasureReverse(context.Background(), h.src, dst.Addr)
		for _, hop := range res.Hops {
			techs[hop.Tech]++
		}
	}
	if techs[core.TechDestination] == 0 {
		t.Error("no destination hops")
	}
	if techs[core.TechRR]+techs[core.TechSpoofRR] == 0 {
		t.Error("no RR-revealed hops at all")
	}
	if techs[core.TechTrIntersect] == 0 {
		t.Error("no atlas intersections at all")
	}
	t.Logf("technique mix: %v", techs)
}

func TestResultHelpers(t *testing.T) {
	r := &core.Result{Hops: []core.Hop{
		{Addr: 1, Tech: core.TechDestination},
		{Addr: 2, Tech: core.TechRR, SuspectBefore: true},
	}}
	if len(r.Addrs()) != 2 || r.Addrs()[1] != 2 {
		t.Error("Addrs wrong")
	}
	if !r.HasSuspect() {
		t.Error("HasSuspect false")
	}
}

func TestTechniqueAndStatusStrings(t *testing.T) {
	for _, tech := range []core.Technique{core.TechDestination, core.TechTrIntersect,
		core.TechRR, core.TechSpoofRR, core.TechTS, core.TechSymmetry, core.TechSource} {
		if tech.String() == "?" {
			t.Errorf("technique %d unstringable", tech)
		}
	}
	for _, s := range []core.Status{core.StatusComplete, core.StatusAborted, core.StatusFailed} {
		if s.String() == "" {
			t.Errorf("status %d unstringable", s)
		}
	}
}

func TestAdjacencyProviders(t *testing.T) {
	ta := core.NewTracerouteAdjacencies()
	var none core.NoAdjacencies
	if got := none.Adjacent(1, 2); got != nil {
		t.Error("NoAdjacencies returned something")
	}
	if ta.Size() != 0 {
		t.Error("fresh corpus not empty")
	}
	oracle := core.OracleAdjacencies{NextReverse: func(a, s ipv4.Addr) ipv4.Addr {
		if a == 5 {
			return 6
		}
		return 0
	}}
	if got := oracle.Adjacent(5, 9); len(got) != 1 || got[0] != 6 {
		t.Errorf("oracle: %v", got)
	}
	if got := oracle.Adjacent(7, 9); got != nil {
		t.Errorf("oracle nonzero on unknown: %v", got)
	}
}
