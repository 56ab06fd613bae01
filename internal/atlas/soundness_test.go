package atlas_test

import (
	"testing"

	"revtr"
	"revtr/internal/atlas"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/simtest"
)

// TestIntersectionSoundness is the atlas's core correctness property: if
// Lookup(x) says the reverse path continues along Suffix toward the
// source, then a packet at that hop reaches the source through routers
// consistent with the suffix. The property is statistical, not absolute —
// per-flow load balancers pick among equal-cost paths by flow identifier
// and destination-based-routing violators by packet source (Appx E), both
// of which the paper documents as rare sources of divergence. The test
// verifies against ground truth and asserts the violation rate stays in
// the paper's "rare" regime. It holds for an atlas of full traceroutes
// and for the Service's Doubletree build, whose entries copy the suffix
// of the entry their traceroute met.
func TestIntersectionSoundness(t *testing.T) {
	t.Run("classic", func(t *testing.T) {
		env := simtest.New(t, 300, 12)
		src := env.Agent(env.SourceHost(0))
		at := atlas.New(src)
		for _, p := range env.Probes {
			if p.Agent.AS == src.AS {
				continue
			}
			tr := env.Prober.Traceroute(p.Agent, src.Addr)
			if !tr.ReachedDst {
				continue
			}
			at.Add(p.Agent.Name, int32(p.Agent.AS), tr.HopAddrs(), 0)
			if at.Size() >= 30 {
				break
			}
		}
		checkSoundness(t, env, src, at)
	})
	t.Run("doubletree", func(t *testing.T) {
		env := simtest.New(t, 300, 12)
		src := env.Agent(env.SourceHost(0))
		svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 30, 12)
		checkSoundness(t, env, src, svc.BuildFor(src))
	})
}

func checkSoundness(t *testing.T, env *simtest.Env, src measure.Agent, at *atlas.Atlas) {
	if at.Size() == 0 {
		t.Skip("no atlas entries")
	}

	checked, violations := 0, 0
	for _, e := range at.Entries {
		for i, h := range e.Hops[:len(e.Hops)-1] {
			x, ok := at.Lookup(h)
			if !ok || x.Entry != e || x.Pos != i {
				continue // hop owned by an earlier entry: checked there
			}
			router, isRouter := env.Topo.RouterOf(h)
			if !isRouter {
				continue
			}
			truth := env.Fabric.ForwardRouterPath(router, src.Addr, h, 0)
			if truth == nil {
				continue
			}
			onPath := map[ipv4.Addr]bool{src.Addr: true}
			for _, r := range truth {
				for _, a := range env.Topo.Aliases(r) {
					onPath[a] = true
				}
			}
			for _, sfx := range x.Suffix {
				if _, isHost := env.Topo.HostOf(sfx); isHost {
					continue // the source endpoint itself
				}
				checked++
				if !onPath[sfx] {
					violations++
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no verifiable suffix hops")
	}
	rate := float64(violations) / float64(checked)
	t.Logf("verified %d suffix hops; %d diverge (%.1f%%, load balancing / DBR violators)",
		checked, violations, 100*rate)
	if rate > 0.10 {
		t.Fatalf("intersection violation rate %.1f%% exceeds the rare-divergence regime", 100*rate)
	}
}

// TestRRDeafGroundTruth splits the deaf ASes of the benchmark's 8 sources —
// 1000 ASes, 30 sites, seed 31 — by what ground truth says silenced them,
// hop by hop: the path home from the hop (Fabric.ForwardRouterPath to the
// source) enters an AS that drops option packets; else the hop's own AS
// drops every option packet that enters it; else the hop's router answers
// none. An AS counts under the weakest explanation one of its hops has,
// and as other when one hop has none. A deaf AS is a claim about what comes
// home to this source, so nearly every one must be explained: at most 5 %
// may be other.
func TestRRDeafGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	cfg := revtr.DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := revtr.Build(cfg)
	topo := d.Topo
	const (
		other = iota
		mute
		filters
		home
	)
	// why explains the silence of hop h, a router's, toward src.
	why := func(h, src ipv4.Addr) int {
		r, ok := topo.RouterOf(h)
		if !ok {
			return other
		}
		path := d.Fabric.ForwardRouterPath(r, src, h, 0)
		for i := 1; i < len(path); i++ {
			if as := topo.Routers[path[i]].AS; as != topo.Routers[path[i-1]].AS && topo.ASes[as].FiltersOptions {
				return home
			}
		}
		switch {
		case topo.ASes[topo.Routers[r].AS].FiltersOptions:
			return filters
		case !topo.Routers[r].RespondsToOptions:
			return mute
		}
		return other
	}
	t.Logf("%-14s %7s %5s | %5s %8s %5s %6s", "source", "probed", "deaf", "home", "filters", "mute", "other")
	var total [home + 1]int
	for si := 0; si < 8; si++ {
		src := d.NewSource(d.PickSourceHost(si * 17))
		at := src.Atlas
		kind := map[topology.ASN]int{}
		for _, e := range at.Entries {
			for _, h := range e.Hops {
				if asn, ok := d.Mapper.ASOf(h); ok && at.RRDeaf[asn] {
					k, seen := kind[asn]
					if !seen {
						k = home
					}
					kind[asn] = min(k, why(h, src.Agent.Addr))
				}
			}
		}
		var n [home + 1]int
		for _, k := range kind {
			n[k]++
			total[k]++
		}
		t.Logf("%-14s %7d %5d | %5d %8d %5d %6d", src.Agent.Addr, len(at.RRDeaf), len(kind), n[home], n[filters], n[mute], n[other])
	}
	deaf := total[home] + total[filters] + total[mute] + total[other]
	if deaf == 0 || total[other]*20 > deaf {
		t.Errorf("%d of %d deaf ASes are not explained, want <= 5 %%", total[other], deaf)
	}
}
