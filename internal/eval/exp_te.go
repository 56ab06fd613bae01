package eval

import (
	"context"

	"fmt"
	"io"
	"sort"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/vantage"
)

// Fig 7 (§6.1): the PEERING traffic-engineering case study. A testbed
// prefix is anycast from seven sites; reverse traceroutes measured with
// the anycast address as the source reveal which networks carry the
// return paths, informing two interventions:
//
//	Left:  a large transit ("Cogent") carries routes to a distant site,
//	       inflating latency; poisoning it on that site's announcement
//	       shifts its routes to the near site and cuts RTTs.
//	Right: one site has two providers at an IXP ("Coloclue"/"BIT"); the
//	       catchment is skewed because a feeder AS ("Fusix") funnels
//	       routes to one provider. No-export communities — iterated as
//	       feeders shift ("True") — rebalance the split.

const teSvcPrefix = "198.51.100.0/24"

type teRound struct {
	routes *bgp.Routes
	// catchment[site] = targets whose pings landed at that site.
	catchment map[int]int
	// siteOf / rtt per target AS (ping-measured).
	siteOf map[topology.ASN]int
	rtt    map[topology.ASN]int64
	// upstream per routed AS: the AS adjacent to the origin on its path.
	upstream map[topology.ASN]topology.ASN
}

type teEnv struct {
	poisonSite int
	d          *revtr.Deployment
	ann        *bgp.Announcement
	group      *fabric.AnycastGroup
	targets    []*topology.Host
	svc        ipv4.Addr
	source     core.Source
	eng        *core.Engine
	siteName   []string
}

func buildTE(s Scale) *teEnv {
	cfg := revtr.Config{
		Topology:     topology.DefaultConfig(s.ASes),
		Sites:        s.Sites,
		Vintage:      vantage.Vintage2020,
		Probes:       s.Probes,
		ProbeCredits: 1 << 30,
		AtlasSize:    s.AtlasSize,
		Seed:         s.Seed + 11,
	}
	cfg.Topology.Seed = s.Seed + 11
	d := revtr.Build(cfg)

	// Attachment ASes for the 7 sites: a far "UFMG" site behind an NREN
	// (RNP-like), a near "NEU" site behind a transit, an "AMS" site with
	// two colo providers, and four others.
	nrens := d.Topo.ASesByTier(topology.NREN)
	transits := d.Topo.ASesByTier(topology.Transit)
	colos := d.Topo.ASesByTier(topology.Colo)
	pick := func(list []topology.ASN, i int) topology.ASN { return list[i%len(list)] }
	ufmgUp := pick(nrens, 0)
	neuUp := pick(transits, 1)
	amsA, amsB := pick(colos, 0), pick(colos, 1)
	ann := &bgp.Announcement{
		Prefix: ipv4.MustParsePrefix(teSvcPrefix),
		Origin: topology.ASN(len(d.Topo.ASes)),
		Sites: []bgp.AnnSite{
			{Name: "UFMG", Neighbors: []bgp.AnnNeighbor{{ASN: ufmgUp, Rel: topology.RelCustomer}}},
			{Name: "NEU", Neighbors: []bgp.AnnNeighbor{{ASN: neuUp, Rel: topology.RelCustomer}}},
			{Name: "AMS", Neighbors: []bgp.AnnNeighbor{
				{ASN: amsA, Rel: topology.RelCustomer},
				{ASN: amsB, Rel: topology.RelCustomer},
			}},
			{Name: "s4", Neighbors: []bgp.AnnNeighbor{{ASN: pick(transits, 3), Rel: topology.RelCustomer}}},
			{Name: "s5", Neighbors: []bgp.AnnNeighbor{{ASN: pick(transits, 5), Rel: topology.RelCustomer}}},
			{Name: "s6", Neighbors: []bgp.AnnNeighbor{{ASN: pick(colos, 2), Rel: topology.RelCustomer}}},
			{Name: "s7", Neighbors: []bgp.AnnNeighbor{{ASN: pick(transits, 7), Rel: topology.RelCustomer}}},
		},
	}
	svc := ipv4.MustParseAddr("198.51.100.1")
	group := &fabric.AnycastGroup{Prefix: ann.Prefix, ServiceAddr: svc}
	for _, site := range ann.Sites {
		via := site.Neighbors[0].ASN
		group.Sites = append(group.Sites, fabric.AnycastSite{
			Name: site.Name, Via: via, Router: d.Topo.ASes[via].Borders[0],
		})
	}

	// Monitoring targets: representative responsive hosts (the paper's
	// 15,300 routing-equivalence groups, scaled).
	var targets []*topology.Host
	for _, h := range d.OnePerPrefix() {
		targets = append(targets, h)
		if len(targets) >= s.Pairs {
			break
		}
	}

	env := &teEnv{d: d, ann: ann, group: group, targets: targets, svc: svc}
	for _, st := range ann.Sites {
		env.siteName = append(env.siteName, st.Name)
	}
	return env
}

// apply recomputes BGP for the current announcement and installs the
// anycast group in the data plane.
func (e *teEnv) apply() *bgp.Routes {
	routes := bgp.Compute(e.d.Topo, e.ann, e.d.Routing.TieBreakFn(), e.d.Routing.Pref())
	e.group.Routes = routes
	e.d.Fabric.ClearAnycast()
	e.d.Fabric.AddAnycast(e.group)
	return routes
}

// measure runs one measurement round: catchments and RTTs by ping from
// every target toward the anycast address.
func (e *teEnv) measure() *teRound {
	r := &teRound{
		routes:    e.apply(),
		catchment: map[int]int{},
		siteOf:    map[topology.ASN]int{},
		rtt:       map[topology.ASN]int64{},
		upstream:  map[topology.ASN]topology.ASN{},
	}
	// The anycast revtr source (the PEERING mux: replies from any site
	// arrive at the measurement VM).
	if e.source.Atlas == nil {
		e.source = e.d.SourceFromAgent(measure.Agent{
			Name: "anycast-src", Addr: e.svc,
			Router: e.group.Sites[0].Router,
			AS:     e.group.Sites[0].Via,
			Site:   0,
		})
		e.eng = e.d.Engine(core.Revtr20Options())
	}
	for asn := range e.d.Topo.ASes {
		rt := r.routes.Per[asn]
		if rt.Site < 0 {
			continue
		}
		real := rt.Path[:len(rt.Path)-1-len(e.ann.Sites[rt.Site].Poison)]
		if len(real) > 0 {
			r.upstream[topology.ASN(asn)] = real[len(real)-1]
		} else {
			r.upstream[topology.ASN(asn)] = topology.ASN(asn)
		}
	}
	for _, h := range e.targets {
		agent := measure.AgentFromHost(e.d.Topo, h)
		pr := e.d.Prober.Ping(agent, e.svc)
		if pr.Site >= 0 {
			r.catchment[pr.Site]++
			r.siteOf[h.AS] = pr.Site
		}
		if pr.Alive {
			r.rtt[h.AS] = pr.RTTUS
		}
	}
	return r
}

// reverseSplit measures reverse traceroutes from the given targets with
// the anycast source and tallies, for paths traversing carrier, the site
// each target's traffic lands at (the Fig 7 left-hand pie).
func (e *teEnv) reverseSplit(ctx context.Context, r *teRound, targets []*topology.Host, carrier topology.ASN) (map[int]int, int) {
	split := map[int]int{}
	seenOnRev := 0
	for _, h := range targets {
		res := e.eng.MeasureReverse(ctx, e.source, h.Addr)
		if res.Status != core.StatusComplete {
			continue
		}
		through := false
		for _, asn := range ip2as.ASPath(e.d.Mapper, res.Addrs()) {
			if asn == carrier {
				through = true
				break
			}
		}
		if !through {
			continue
		}
		seenOnRev++
		if site, ok := r.siteOf[h.AS]; ok {
			split[site]++
		}
	}
	return split, seenOnRev
}

// dataPath returns the AS-level path a target's traffic to the anycast
// address actually takes in the data plane (per-router alternative
// selection included).
func (e *teEnv) dataPath(h *topology.Host) []topology.ASN {
	rp := e.d.Fabric.ForwardRouterPath(h.Router, e.svc, h.Addr, uint64(h.ID))
	return e.d.Fabric.ASPath(rp)
}

// dominantCarrier picks the transit AS observed on the most data-plane
// paths toward the anycast prefix while holding tied-best routes to at
// least two sites — the "Cogent" of the story, whose ingress routers
// hot-potato to different sites.
func (e *teEnv) dominantCarrier(r *teRound) topology.ASN {
	ups := map[topology.ASN]bool{}
	for _, st := range e.ann.Sites {
		for _, nb := range st.Neighbors {
			ups[nb.ASN] = true
		}
	}
	// For each (carrier, site) pair, collect the RTTs of targets routed
	// through that carrier into that site. The intervention targets the
	// pair with the worst latency — the paper's "Cogent routers in the
	// southeastern US chose routes to Brazil" situation.
	type key struct {
		c topology.ASN
		s int
	}
	rtts := map[key]*Dist{}
	for _, h := range e.targets {
		site, ok := r.siteOf[h.AS]
		if !ok {
			continue
		}
		rtt, ok := r.rtt[h.AS]
		if !ok {
			continue
		}
		for _, hop := range e.dataPath(h) {
			if ups[hop] || hop == h.AS {
				continue
			}
			tier := e.d.Topo.ASes[hop].Tier
			if tier != topology.Transit && tier != topology.Tier1 {
				continue
			}
			k := key{hop, site}
			if rtts[k] == nil {
				rtts[k] = &Dist{}
			}
			rtts[k].Add(float64(rtt))
		}
	}
	best := key{topology.None, -1}
	bestScore := 0.0
	//revtr:unordered max-selection with total-order tie-break (score, then carrier, then site); any iteration order picks the same pair
	for k, d := range rtts {
		if d.N() < 5 {
			continue // need a few suffering clients
		}
		altSites := map[int]bool{r.routes.Per[k.c].Site: true}
		for _, alt := range r.routes.Per[k.c].Alts {
			altSites[alt.Site] = true
		}
		if len(altSites) < 2 {
			continue // poisoning one site must leave alternatives
		}
		score := d.Mean() * float64(d.N())
		if score > bestScore || (score == bestScore && bestScore > 0 && (k.c < best.c || (k.c == best.c && k.s < best.s))) {
			best, bestScore = k, score
		}
	}
	e.poisonSite = best.s
	return best.c
}

func sitesShare(m map[int]int, names []string) string {
	type kv struct {
		site int
		n    int
	}
	var all []kv
	total := 0
	for s, n := range m {
		all = append(all, kv{s, n})
		total += n
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	out := ""
	for _, x := range all {
		if x.site < 0 || x.site >= len(names) {
			continue
		}
		out += fmt.Sprintf("%s=%s ", names[x.site], Pct(float64(x.n)/float64(max(1, total))))
	}
	return out
}

func init() {
	register("fig7", "Fig 7 (§6.1): traffic engineering with reverse traceroutes", func(ctx context.Context, s Scale, w io.Writer) error {
		e := buildTE(s)

		fmt.Fprintln(w, "== Fig 7 — anycast traffic engineering on the PEERING-like testbed ==")
		base := e.measure()
		fmt.Fprintf(w, "  baseline catchments: %s\n", sitesShare(base.catchment, e.siteName))

		// Left: poison the dominant carrier on the far (UFMG) site.
		carrier := e.dominantCarrier(base)
		if carrier == topology.None {
			fmt.Fprintln(w, "  no split carrier found; skipping poisoning scenario")
		} else {
			// Reverse traceroutes from targets routed through the carrier
			// (control-plane candidates, revtr-verified — the real study
			// could only see this via revtr 2.0).
			var affected []*topology.Host
			for _, h := range e.targets {
				if site, ok := base.siteOf[h.AS]; !ok || site != e.poisonSite {
					continue
				}
				for _, asn := range e.dataPath(h) {
					if asn == carrier {
						affected = append(affected, h)
						break
					}
				}
			}
			if len(affected) > s.Pairs/3 {
				affected = affected[:s.Pairs/3]
			}
			split, seen := e.reverseSplit(ctx, base, affected, carrier)
			fmt.Fprintf(w, "  carrier AS%d (%s, cone %d): %d reverse paths verified through it; site split: %s\n",
				carrier, e.d.Topo.ASes[carrier].Tier, e.d.Topo.ASes[carrier].ConeSize,
				seen, sitesShare(split, e.siteName))
			e.ann.Sites[e.poisonSite].Poison = []topology.ASN{carrier}
			after := e.measure()
			split2, _ := e.reverseSplit(ctx, after, affected, carrier)
			fmt.Fprintf(w, "  after poisoning AS%d on the %s announcement: site split %s\n",
				carrier, e.siteName[e.poisonSite], sitesShare(split2, e.siteName))
			var rttBefore, rttAfter Dist
			moved := 0
			for _, h := range affected {
				b, ok1 := base.rtt[h.AS]
				a, ok2 := after.rtt[h.AS]
				if ok1 && ok2 {
					rttBefore.Add(float64(b) / 1000)
					rttAfter.Add(float64(a) / 1000)
					if base.siteOf[h.AS] != after.siteOf[h.AS] {
						moved++
					}
				}
			}
			fmt.Fprintf(w, "  %d/%d affected targets changed site; RTT %.1fms -> %.1fms (mean; paper: -70ms/-99ms for two clients)\n",
				moved, len(affected), rttBefore.Mean(), rttAfter.Mean())
			e.ann.Sites[e.poisonSite].Poison = nil
		}

		// Right: balance the AMS site's two providers.
		amsSite := 2
		amsA := e.ann.Sites[amsSite].Neighbors[0].ASN
		amsB := e.ann.Sites[amsSite].Neighbors[1].ASN
		split := func(r *teRound) (int, int) {
			na, nb := 0, 0
			for asn, up := range r.upstream {
				if r.routes.Per[asn].Site != amsSite {
					continue
				}
				switch up {
				case amsA:
					na++
				case amsB:
					nb++
				}
			}
			return na, nb
		}
		r1 := e.measure()
		a1, b1 := split(r1)
		fmt.Fprintf(w, "  AMS providers: AS%d=%d AS%d=%d (default)\n", amsA, a1, amsB, b1)
		// Feeder: most common AS before the dominant provider.
		dom := amsA
		if b1 > a1 {
			dom = amsB
		}
		feeder := map[topology.ASN]int{}
		for asn := range e.d.Topo.ASes {
			rt := r1.routes.Per[asn]
			if rt.Site != amsSite {
				continue
			}
			real := rt.Path[:len(rt.Path)-1]
			for j := 0; j+1 < len(real); j++ {
				if real[j+1] == dom {
					feeder[real[j]]++
				}
			}
		}
		var f1 topology.ASN = topology.None
		bestN := 0
		//revtr:unordered max-selection with tie-break on smallest ASN; any iteration order picks the same feeder
		for asn, n := range feeder {
			if n > bestN || (n == bestN && asn < f1) {
				f1, bestN = asn, n
			}
		}
		if f1 == topology.None {
			fmt.Fprintln(w, "  no feeder found; skipping no-export scenario")
			fmt.Fprintln(w)
			return nil
		}
		e.ann.Sites[amsSite].Neighbors[0].NoExportTo = nil
		domIdx := 0
		if dom == amsB {
			domIdx = 1
		}
		e.ann.Sites[amsSite].Neighbors[domIdx].NoExportTo = []topology.ASN{f1}
		r2 := e.measure()
		a2, b2 := split(r2)
		fmt.Fprintf(w, "  after no-export to feeder AS%d: AS%d=%d AS%d=%d\n", f1, amsA, a2, amsB, b2)
		// Second feeder iteration ("True"): recompute, block the next one.
		feeder2 := map[topology.ASN]int{}
		for asn := range e.d.Topo.ASes {
			rt := r2.routes.Per[asn]
			if rt.Site != amsSite {
				continue
			}
			real := rt.Path[:len(rt.Path)-1]
			for j := 0; j+1 < len(real); j++ {
				if real[j+1] == dom && real[j] != f1 {
					feeder2[real[j]]++
				}
			}
		}
		var f2 topology.ASN = topology.None
		bestN = 0
		//revtr:unordered max-selection with tie-break on smallest ASN; any iteration order picks the same feeder
		for asn, n := range feeder2 {
			if n > bestN || (n == bestN && asn < f2) {
				f2, bestN = asn, n
			}
		}
		if f2 != topology.None {
			e.ann.Sites[amsSite].Neighbors[domIdx].NoExportTo = []topology.ASN{f1, f2}
			r3 := e.measure()
			a3, b3 := split(r3)
			fmt.Fprintf(w, "  after also blocking AS%d: AS%d=%d AS%d=%d\n", f2, amsA, a3, amsB, b3)
		}
		fmt.Fprintf(w, "  paper: split moves from 91.2:8.8 to 60.5:39.5 across three configurations\n\n")
		return nil
	})
}
