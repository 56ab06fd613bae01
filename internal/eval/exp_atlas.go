package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/dynamics"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/vantage"
)

// Appx D.2: traceroute atlas design studies. Fig 9a–c operate on a corpus
// of probe→source traceroutes split into an atlas-candidate pool and a
// pseudo-reverse-traceroute pool, comparing random selection against the
// greedy weighted-max-coverage optimum. Fig 9d runs a day-long virtual
// campaign under routing churn and counts reverse traceroutes that
// intersected a stale atlas entry.

// atlasCorpus is the per-source traceroute dataset.
type atlasCorpus struct {
	// pool are atlas candidates; revtrs simulate reverse traceroutes.
	pool   [][]ipv4.Addr
	revtrs [][]ipv4.Addr
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[string][]*atlasCorpus{}
)

// buildCorpora measures traceroutes from every probe to each source and
// splits them per the Appendix D.2.1 methodology.
func buildCorpora(s Scale) []*atlasCorpus {
	key := fig5Key(s)
	corpusMu.Lock()
	if c, ok := corpusCache[key]; ok {
		corpusMu.Unlock()
		return c
	}
	corpusMu.Unlock()

	d := deploymentNoSurvey(s)
	rng := rand.New(rand.NewSource(s.Seed + 4))
	var out []*atlasCorpus
	nSources := s.Sources
	if nSources > len(d.SiteAgents) {
		nSources = len(d.SiteAgents)
	}
	for si := 0; si < nSources; si++ {
		src := d.SiteAgents[si]
		var all [][]ipv4.Addr
		for _, p := range d.Probes {
			if p.Agent.AS == src.AS {
				continue
			}
			tr := d.Prober.Traceroute(p.Agent, src.Addr)
			if !tr.ReachedDst {
				continue
			}
			hops := tr.HopAddrs()
			if len(hops) >= 3 {
				all = append(all, hops)
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		half := len(all) / 2
		out = append(out, &atlasCorpus{pool: all[:half], revtrs: all[half:]})
	}

	corpusMu.Lock()
	corpusCache[key] = out
	corpusMu.Unlock()
	return out
}

// meanIntersected computes the Appendix D.2.1 metric: the mean fraction of
// hops a pseudo-reverse-traceroute saves via its earliest intersection
// with the atlas.
func meanIntersected(atlasSet [][]ipv4.Addr, revtrs [][]ipv4.Addr) float64 {
	index := map[ipv4.Addr]bool{}
	for _, tr := range atlasSet {
		for _, h := range tr {
			index[h] = true
		}
	}
	if len(revtrs) == 0 {
		return 0
	}
	sum := 0.0
	for _, rv := range revtrs {
		for i, h := range rv {
			if index[h] {
				sum += float64(len(rv)-i) / float64(len(rv))
				break
			}
		}
	}
	return sum / float64(len(revtrs))
}

// greedyOptimal selects k traceroutes from pool by weighted max coverage,
// where an address's weight is the summed distance-to-source over the
// traceroutes of weightSet it appears on.
func greedyOptimal(pool [][]ipv4.Addr, weightSet [][]ipv4.Addr, k int) [][]ipv4.Addr {
	weight := map[ipv4.Addr]float64{}
	for _, tr := range weightSet {
		for i, h := range tr {
			weight[h] += float64(len(tr) - i)
		}
	}
	covered := map[ipv4.Addr]bool{}
	chosen := make([]bool, len(pool))
	var out [][]ipv4.Addr
	for len(out) < k {
		best, bestGain := -1, 0.0
		for i, tr := range pool {
			if chosen[i] {
				continue
			}
			gain := 0.0
			for _, h := range tr {
				if !covered[h] {
					gain += weight[h]
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		for _, h := range pool[best] {
			covered[h] = true
		}
		out = append(out, pool[best])
	}
	return out
}

func init() {
	register("fig9a", "Fig 9a: atlas savings vs size, random vs optimal", func(ctx context.Context, s Scale, w io.Writer) error {
		corpora := buildCorpora(s)
		rng := rand.New(rand.NewSource(s.Seed + 5))
		t := &Table{
			Title:  "Fig 9a — mean fraction of hops intersected per reverse traceroute",
			Header: []string{"atlas size (frac of pool)", "random", "optimal", "optimal-revtr"},
		}
		for _, frac := range []float64{0.1, 0.2, 0.4, 0.7, 1.0} {
			var rnd, opt, optR Dist
			for _, c := range corpora {
				k := int(frac * float64(len(c.pool)))
				if k == 0 {
					continue
				}
				perm := rng.Perm(len(c.pool))
				var randSet [][]ipv4.Addr
				for _, i := range perm[:k] {
					randSet = append(randSet, c.pool[i])
				}
				rnd.Add(meanIntersected(randSet, c.revtrs))
				opt.Add(meanIntersected(greedyOptimal(c.pool, c.pool, k), c.revtrs))
				optR.Add(meanIntersected(greedyOptimal(c.pool, c.revtrs, k), c.revtrs))
			}
			t.AddRow(fmt.Sprintf("%.0f%%", 100*frac), F(rnd.Mean()), F(opt.Mean()), F(optR.Mean()))
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: 20%% of the pool yields 56%% intersected (full pool: 60%%); random ≈ 90%% of optimal\n\n")
		return nil
	})

	register("fig9b", "Fig 9b: Random++ replacement converges to optimal", func(ctx context.Context, s Scale, w io.Writer) error {
		corpora := buildCorpora(s)
		rng := rand.New(rand.NewSource(s.Seed + 6))
		frac := 0.2
		t := &Table{
			Title:  "Fig 9b — Random++ iterations (atlas = 20% of pool)",
			Header: []string{"iteration", "mean intersected", "optimal"},
		}
		perIter := make([]Dist, 8)
		var optD Dist
		for _, c := range corpora {
			k := int(frac * float64(len(c.pool)))
			if k == 0 {
				continue
			}
			optD.Add(meanIntersected(greedyOptimal(c.pool, c.pool, k), c.revtrs))
			// Random++ on this corpus.
			inAtlas := map[int]bool{}
			perm := rng.Perm(len(c.pool))
			for _, i := range perm[:k] {
				inAtlas[i] = true
			}
			for iter := 0; iter < len(perIter); iter++ {
				// Iterate atlas membership in sorted order: the first-writer-
				// wins index below must not depend on map iteration order.
				members := make([]int, 0, len(inAtlas))
				for i := range inAtlas {
					members = append(members, i)
				}
				sort.Ints(members)
				var set [][]ipv4.Addr
				for _, i := range members {
					set = append(set, c.pool[i])
				}
				perIter[iter].Add(meanIntersected(set, c.revtrs))
				// Keep entries whose hops provided a first intersection.
				index := map[ipv4.Addr]int{}
				for _, i := range members {
					for _, h := range c.pool[i] {
						if _, dup := index[h]; !dup {
							index[h] = i
						}
					}
				}
				used := map[int]bool{}
				sample := c.revtrs
				for _, rv := range sample {
					for _, h := range rv {
						if i, ok := index[h]; ok {
							used[i] = true
							break
						}
					}
				}
				// Refill with fresh random entries.
				next := map[int]bool{}
				for i := range used {
					next[i] = true
				}
				perm2 := rng.Perm(len(c.pool))
				for _, i := range perm2 {
					if len(next) >= k {
						break
					}
					next[i] = true
				}
				inAtlas = next
			}
		}
		for i := range perIter {
			t.AddRow(fmt.Sprint(i), F(perIter[i].Mean()), F(optD.Mean()))
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: five iterations suffice to converge to the optimal atlas\n\n")
		return nil
	})

	register("fig9c", "Fig 9c: savings stable as reverse traceroutes scale", func(ctx context.Context, s Scale, w io.Writer) error {
		corpora := buildCorpora(s)
		rng := rand.New(rand.NewSource(s.Seed + 7))
		t := &Table{
			Title:  "Fig 9c — mean intersected vs number of reverse traceroutes",
			Header: []string{"atlas frac", "n=25%", "n=50%", "n=100%"},
		}
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			cells := []string{fmt.Sprintf("%.0f%%", 100*frac)}
			for _, rvFrac := range []float64{0.25, 0.5, 1.0} {
				var d Dist
				for _, c := range corpora {
					k := int(frac * float64(len(c.pool)))
					nrv := int(rvFrac * float64(len(c.revtrs)))
					if k == 0 || nrv == 0 {
						continue
					}
					perm := rng.Perm(len(c.pool))
					var set [][]ipv4.Addr
					for _, i := range perm[:k] {
						set = append(set, c.pool[i])
					}
					d.Add(meanIntersected(set, c.revtrs[:nrv]))
				}
				cells = append(cells, F(d.Mean()))
			}
			t.AddRow(cells...)
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: <1%% drift as the number of reverse traceroutes grows\n\n")
		return nil
	})

	register("fig9d", "Fig 9d: atlas staleness over a day of churn", func(ctx context.Context, s Scale, w io.Writer) error {
		// Dedicated deployment: churn mutates routing state.
		cfg := revtr.Config{
			Topology:     topology.DefaultConfig(s.ASes),
			Sites:        s.Sites,
			Vintage:      vantage.Vintage2020,
			Probes:       s.Probes,
			ProbeCredits: 1 << 30,
			AtlasSize:    s.AtlasSize,
			Seed:         s.Seed + 9,
		}
		cfg.Topology.Seed = s.Seed + 9
		d := revtr.Build(cfg)
		churn := dynamics.New(d.Fabric, s.Seed+9)
		src := d.SourceFromAgent(d.SiteAgents[0])
		eng := d.Engine(core.Revtr20Options())

		probeByName := map[string]topology.RouterID{}
		probeAddr := map[string]ipv4.Addr{}
		for _, p := range d.Probes {
			probeByName[p.Agent.Name] = p.Agent.Router
			probeAddr[p.Agent.Name] = p.Agent.Addr
		}

		dests := d.OnePerPrefix()
		perHour := max(5, s.Pairs/24)
		staleNoInt, staleASPath, totalIntersecting := 0, 0, 0
		total := 0
		t := &Table{
			Title:  "Fig 9d — cumulative reverse traceroutes intersecting a stale traceroute",
			Header: []string{"hour", "revtrs", "stale (no intersection)", "stale (AS path changed)"},
		}
		rng := rand.New(rand.NewSource(s.Seed + 10))
		for hour := 0; hour < 24; hour++ {
			// ~0.2% of ASes re-roll policy per hour → a few percent of
			// paths change over the day, matching the paper's regime.
			churn.Step(0.02, 1)
			d.Prober.SetNow(int64(hour) * 3_600_000_000)
			for i := 0; i < perHour; i++ {
				dst := dests[rng.Intn(len(dests))]
				if dst.AS == src.Agent.AS {
					continue
				}
				res := eng.MeasureReverse(ctx, src, dst.Addr)
				total++
				for _, use := range res.AtlasUses {
					e := use.Entry
					totalIntersecting++
					// Fresh re-measurement from the same probe.
					router, ok := probeByName[e.ProbeName]
					if !ok {
						continue
					}
					fresh := d.Prober.Traceroute(agentAt(probeAddr[e.ProbeName], router), src.Agent.Addr)
					freshHops := fresh.HopAddrs()
					fi := map[ipv4.Addr]int{}
					for j, h := range freshHops {
						fi[h] = j
					}
					// The intersected hop must still be on the fresh path.
					j, onPath := fi[e.Hops[use.Pos]]
					if !onPath {
						staleNoInt++
						e.Stale = true
						continue
					}
					// AS path after the intersection changed?
					oldAS := ip2as.ASPath(d.Mapper, e.Hops[use.Pos:])
					newAS := ip2as.ASPath(d.Mapper, freshHops[j:])
					if !asPathsEqual(oldAS, newAS) {
						staleASPath++
						e.Stale = true
					}
				}
			}
			if hour%6 == 5 || hour == 23 {
				t.AddRow(fmt.Sprint(hour+1), fmt.Sprint(total),
					Pct(float64(staleNoInt)/float64(max(1, total))),
					Pct(float64(staleASPath)/float64(max(1, total))))
			}
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  intersecting measurements: %d; paper: 0.7%% of revtrs intersected a stale traceroute after 24h\n\n",
			totalIntersecting)
		return nil
	})
}

func agentAt(addr ipv4.Addr, router topology.RouterID) measure.Agent {
	return measure.Agent{Addr: addr, Router: router}
}
