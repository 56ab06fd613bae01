package atlas_test

import (
	"slices"
	"testing"

	"revtr"
	"revtr/internal/atlas"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

// TestDoubletreeAgainstClassic holds the Doubletree build to the classic
// one it replaced, at the classic build's atlas size (n/6), on the same
// sources with the same probe draws: on a simtest world and on the
// benchmark's (1000 ASes, seed 31, 30 sites). Its atlases must intersect
// at ≥ 99 % of the classic build's direct hop addresses and ≥ 97 % of its
// RR aliases, and every direct address it misses must lie past the hop
// where the Doubletree traceroute of that probe stopped: a suffix copied
// from an entry whose path home differs. An RR alias can also be missed
// before that hop, where both builds probed the same hop and a per-packet
// balancer, which keys on the sequence number, sent the two replies
// different ways; those are counted, not failed. Background packets per
// entry must fall by ≥ 40 % on the benchmark's world. The simtest world's
// paths are shorter and share fewer hops, so there the floor is a third.
func TestDoubletreeAgainstClassic(t *testing.T) {
	t.Run("simtest", func(t *testing.T) {
		env := simtest.New(t, 300, 4)
		var srcs []measure.Agent
		for i := 0; i < 4; i++ {
			srcs = append(srcs, env.Agent(env.SourceHost(i*5)))
		}
		checkDoubletree(t, env.Prober, srcs, 1.0/3, func() *atlas.Service {
			return atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 300/6, 4)
		})
	})
	t.Run("bench", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds the 1000-AS world")
		}
		cfg := revtr.DefaultConfig(1000)
		cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
		d := revtr.Build(cfg)
		var srcs []measure.Agent
		for si := 0; si < 8; si++ {
			srcs = append(srcs, measure.AgentFromHost(d.Topo, d.PickSourceHost(si*17)))
		}
		checkDoubletree(t, d.Prober, srcs, 0.40, func() *atlas.Service {
			return atlas.NewService(d.Prober, d.Probes, d.AtlasSvc.Pick, d.Alias, d.Mapper, 1000/6, cfg.Seed)
		})
	})
}

func checkDoubletree(t *testing.T, p *measure.Prober, srcs []measure.Agent, minSaving float64, newSvc func() *atlas.Service) {
	classicSvc, dtSvc := newSvc(), newSvc()
	var direct, directHit, aliases, aliasHit, aliasBeforeMeet, classicEntries, dtEntries int
	var classicPkts, dtPkts uint64
	for _, src := range srcs {
		before := p.Count
		classic, aliasOf := classicSvc.ClassicBuild(src)
		mid := p.Count
		dt := dtSvc.BuildFor(src)
		classicPkts += mid.Sub(before).Total()
		dtPkts += p.Count.Sub(mid).Total()
		classicEntries += classic.Size()
		dtEntries += dt.Size()

		byProbe := map[string]*atlas.Entry{}
		for _, e := range dt.Entries {
			byProbe[e.ProbeName] = e
		}
		// pastMeet: h lies on the classic entry c past the hop where the
		// Doubletree traceroute of c's probe stopped.
		pastMeet := func(c *atlas.Entry, h ipv4.Addr) bool {
			e := byProbe[c.ProbeName]
			return e != nil && slices.Index(c.Hops, h) > meetPos(dt, e)
		}
		seen := map[ipv4.Addr]bool{}
		for _, c := range classic.Entries {
			for _, h := range c.Hops {
				if seen[h] {
					continue
				}
				seen[h] = true
				direct++
				if x, ok := dt.Lookup(h); ok && !x.ViaRRAlias {
					directHit++
				} else if !pastMeet(c, h) {
					t.Errorf("source %s: direct hop %s of %s missed before the meet point", src.Addr, h, c.ProbeName)
				}
			}
		}
		for _, x := range classic.Aliases() {
			aliases++
			if _, ok := dt.Lookup(x); ok {
				aliasHit++
			} else if !pastMeet(aliasOf[x], classic.AliasedHop(x)) {
				aliasBeforeMeet++
			}
		}
	}
	classicPer := float64(classicPkts) / float64(classicEntries)
	dtPer := float64(dtPkts) / float64(dtEntries)
	t.Logf("direct %d/%d, RR aliases %d/%d (%d missed before the meet point); background per entry %.2f classic, %.2f Doubletree (%d/%d entries)",
		directHit, direct, aliasHit, aliases, aliasBeforeMeet, classicPer, dtPer, classicEntries, dtEntries)
	if float64(directHit) < 0.99*float64(direct) {
		t.Errorf("Doubletree holds %d of the classic build's %d direct addresses, below 99 %%", directHit, direct)
	}
	if float64(aliasHit) < 0.97*float64(aliases) {
		t.Errorf("Doubletree resolves %d of the classic build's %d RR aliases, below 97 %%", aliasHit, aliases)
	}
	if dtPer > (1-minSaving)*classicPer {
		t.Errorf("background per entry %.2f against the classic build's %.2f: less than %.0f %% lower", dtPer, classicPer, 100*minSaving)
	}
}

// meetPos is the position in e of the hop where its traceroute met the
// atlas (the first hop another entry holds), or len(e.Hops) for none.
func meetPos(at *atlas.Atlas, e *atlas.Entry) int {
	for j, h := range e.Hops {
		if x, _ := at.Lookup(h); x.Entry != e {
			return j
		}
	}
	return len(e.Hops)
}
