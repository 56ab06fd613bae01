package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"revtr/internal/netsim/ipv4"
)

// Generate builds a topology from cfg. Generation is deterministic in
// cfg.Seed.
func Generate(cfg Config) *Topology {
	if cfg.NumASes < cfg.minASes() {
		panic(fmt.Sprintf("topology: NumASes=%d too small", cfg.NumASes))
	}
	g := &generator{
		t:   &Topology{byAddr: make(map[ipv4.Addr]AddrOwner)},
		cfg: cfg,
		era: eras[cfg.Vintage],
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.assignTiers()
	g.buildASGraph()
	g.placeASes()
	g.buildRouters()
	g.buildInterLinks()
	g.buildHosts()
	g.finish()
	return g.t
}

type generator struct {
	t   *Topology
	cfg Config
	era era
	rng *rand.Rand

	nextBlock  uint32 // next /16 block base
	nextPriv   uint32 // next private stamp address
	custDegree []int  // running customer counts for preferential attachment
	nextP2P    []uint32
	nextLoop   []uint32
}

// blockBase allocates the next /16 that does not overlap private or
// loopback space.
func (g *generator) blockBase() ipv4.Prefix {
	if g.nextBlock == 0 {
		g.nextBlock = 0x10000000 // start at 16.0.0.0
	}
	for {
		b := g.nextBlock
		g.nextBlock += 0x10000
		// Skip 127.0.0.0/8, 172.16.0.0/12, 192.168.0.0/16.
		if b>>24 == 127 || (b >= 0xac100000 && b < 0xac200000) || b>>16 == 0xc0a8 {
			continue
		}
		if b >= 0xe0000000 {
			panic("topology: out of /16 blocks")
		}
		return ipv4.Prefix{Addr: ipv4.Addr(b), Bits: 16}
	}
}

func (g *generator) assignTiers() {
	n := g.cfg.NumASes
	nT1 := g.cfg.tier1Count()
	nTransit := int(float64(n) * transitFrac)
	nColo := maxInt(3, int(float64(n)*g.era.coloFrac))
	nNREN := maxInt(2, int(float64(n)*nrenFrac))
	g.custDegree = make([]int, n)
	g.nextP2P = make([]uint32, n)
	g.nextLoop = make([]uint32, n)
	for i := 0; i < n; i++ {
		var tier Tier
		switch {
		case i < nT1:
			tier = Tier1
		case i < nT1+nTransit:
			tier = Transit
		case i < nT1+nTransit+nColo:
			tier = Colo
		case i < nT1+nTransit+nColo+nNREN:
			tier = NREN
		default:
			tier = Stub
		}
		as := &AS{ASN: ASN(i), Tier: tier, Block: g.blockBase()}
		g.nextP2P[i] = uint32(as.Block.Addr) + 0x0100
		g.nextLoop[i] = uint32(as.Block.Addr)
		g.t.ASes = append(g.t.ASes, as)
	}
}

// addASEdge records an AS-level adjacency; rel is from a's perspective.
func (g *generator) addASEdge(a, b ASN, rel Rel) {
	ta, tb := g.t.ASes[a], g.t.ASes[b]
	if ta.Neighbor(b) != nil {
		return
	}
	ta.Neighbors = append(ta.Neighbors, Neighbor{ASN: b, Rel: rel})
	tb.Neighbors = append(tb.Neighbors, Neighbor{ASN: a, Rel: rel.Invert()})
	if rel == RelCustomer {
		g.custDegree[a]++
	} else if rel == RelProvider {
		g.custDegree[b]++
	}
}

// pickProvider selects a provider among candidate ASNs, weighted by
// customer degree + 1 (preferential attachment → heavy-tailed cones).
func (g *generator) pickProvider(cands []ASN, exclude map[ASN]bool) (ASN, bool) {
	total := 0
	for _, c := range cands {
		if !exclude[c] {
			total += g.custDegree[c] + 1
		}
	}
	if total == 0 {
		return 0, false
	}
	x := g.rng.Intn(total)
	for _, c := range cands {
		if exclude[c] {
			continue
		}
		x -= g.custDegree[c] + 1
		if x < 0 {
			return c, true
		}
	}
	return 0, false
}

func (g *generator) buildASGraph() {
	era := g.era
	var t1s, transits, colos, nrens []ASN
	for _, as := range g.t.ASes {
		switch as.Tier {
		case Tier1:
			t1s = append(t1s, as.ASN)
		case Transit:
			transits = append(transits, as.ASN)
		case Colo:
			colos = append(colos, as.ASN)
		case NREN:
			nrens = append(nrens, as.ASN)
		}
	}
	// Tier-1 clique.
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			g.addASEdge(t1s[i], t1s[j], RelPeer)
		}
	}
	// Transit: providers among tier1 + earlier transit; occasional peering.
	for idx, a := range transits {
		cands := append([]ASN{}, t1s...)
		cands = append(cands, transits[:idx]...)
		ex := map[ASN]bool{a: true}
		np := 1 + g.rng.Intn(2)
		for k := 0; k < np; k++ {
			if p, ok := g.pickProvider(cands, ex); ok {
				g.addASEdge(p, a, RelCustomer)
				ex[p] = true
			}
		}
		if idx > 0 && g.rng.Float64() < 0.35 {
			for k := 0; k < 1+g.rng.Intn(3); k++ {
				p := transits[g.rng.Intn(idx)]
				if p != a && !ex[p] {
					g.addASEdge(a, p, RelPeer)
					ex[p] = true
				}
			}
		}
	}
	// Colo: providers among tier1/transit, wide peering (the flattening).
	for idx, a := range colos {
		cands := append(append([]ASN{}, t1s...), transits...)
		ex := map[ASN]bool{a: true}
		for k := 0; k < 1+g.rng.Intn(2); k++ {
			if p, ok := g.pickProvider(cands, ex); ok {
				g.addASEdge(p, a, RelCustomer)
				ex[p] = true
			}
		}
		peerCands := append(append(append([]ASN{}, transits...), colos[:idx]...), t1s...)
		np := era.coloPeerMin + g.rng.Intn(maxInt(1, era.coloPeerMax-era.coloPeerMin+1))
		for k := 0; k < np && len(peerCands) > 0; k++ {
			p := peerCands[g.rng.Intn(len(peerCands))]
			if p != a && !ex[p] {
				g.addASEdge(a, p, RelPeer)
				ex[p] = true
			}
		}
	}
	// NREN: one provider, very wide peering, and they carry each other's
	// traffic (multi-AS cold potato emerges from peering + low local-pref
	// asymmetries).
	for idx, a := range nrens {
		cands := append(append([]ASN{}, t1s...), transits...)
		ex := map[ASN]bool{a: true}
		if p, ok := g.pickProvider(cands, ex); ok {
			g.addASEdge(p, a, RelCustomer)
			ex[p] = true
		}
		peerCands := append(append(append([]ASN{}, transits...), colos...), nrens[:idx]...)
		np := era.nrenPeerMin + g.rng.Intn(maxInt(1, era.nrenPeerMax-era.nrenPeerMin+1))
		for k := 0; k < np && len(peerCands) > 0; k++ {
			p := peerCands[g.rng.Intn(len(peerCands))]
			if p != a && !ex[p] {
				g.addASEdge(a, p, RelPeer)
				ex[p] = true
			}
		}
	}
	// Stubs: 1–3 providers; some peer at IXPs (via colo ASes); a few are
	// education networks homed behind NRENs.
	for _, as := range g.t.ASes {
		if as.Tier != Stub {
			continue
		}
		a := as.ASN
		ex := map[ASN]bool{a: true}
		var cands []ASN
		r := g.rng.Float64()
		switch {
		case r < 0.05 && len(nrens) > 0: // edu stub
			cands = nrens
		case r < 0.10:
			cands = t1s
		default:
			cands = append(append([]ASN{}, transits...), colos...)
		}
		if p, ok := g.pickProvider(cands, ex); ok {
			g.addASEdge(p, a, RelCustomer)
			ex[p] = true
		}
		// Multihoming: nearly half of stubs buy from a second provider.
		extra := 0
		if r2 := g.rng.Float64(); r2 < 0.10 {
			extra = 2
		} else if r2 < 0.45 {
			extra = 1
		}
		all := append(append([]ASN{}, transits...), colos...)
		for k := 0; k < extra; k++ {
			if p, ok := g.pickProvider(all, ex); ok {
				g.addASEdge(p, a, RelCustomer)
				ex[p] = true
			}
		}
		if g.rng.Float64() < era.stubAtIXPFrac && len(colos) > 0 {
			p := colos[g.rng.Intn(len(colos))]
			if !ex[p] {
				g.addASEdge(a, p, RelPeer)
			}
		}
	}
}

// placeASes assigns coarse geography: tier-1s spread uniformly, every
// other AS near its first provider (regional clustering).
func (g *generator) placeASes() {
	for _, as := range g.t.ASes {
		var prov *AS
		for _, nb := range as.Neighbors {
			if nb.Rel == RelProvider {
				prov = g.t.ASes[nb.ASN]
				break
			}
		}
		if prov == nil {
			as.Pos = [2]float64{g.rng.Float64(), g.rng.Float64()}
			continue
		}
		// Providers are created (and therefore placed) before customers.
		as.Pos = [2]float64{
			clampF(prov.Pos[0]+g.rng.NormFloat64()*0.08, 0, 1),
			clampF(prov.Pos[1]+g.rng.NormFloat64()*0.08, 0, 1),
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// interLatBetween derives an interdomain link latency from the distance
// between the two ASes, with jitter (links land in different cities).
func (g *generator) interLatBetween(a, b ASN) int32 {
	pa, pb := g.t.ASes[a].Pos, g.t.ASes[b].Pos
	dx, dy := pa[0]-pb[0], pa[1]-pb[1]
	dist := dx*dx + dy*dy
	// sqrt via simple iteration-free approximation is overkill; use the
	// real thing.
	d := math.Sqrt(dist)
	base := float64(interLatMinUS)
	span := float64(interLatMaxUS - interLatMinUS)
	lat := base + span*d*(0.7+0.6*g.rng.Float64())
	if lat < base {
		lat = base
	}
	return int32(lat)
}

// allocLoopback hands out the next loopback address in the AS block
// (x.x.0.0/24 region).
func (g *generator) allocLoopback(asn ASN) ipv4.Addr {
	a := g.nextLoop[asn]
	g.nextLoop[asn]++
	if a-uint32(g.t.ASes[asn].Block.Addr) >= 0x100 {
		panic("topology: too many routers in AS")
	}
	return ipv4.Addr(a)
}

// allocP2P hands out a /30 from the AS block and returns its two usable
// addresses.
func (g *generator) allocP2P(asn ASN) (ipv4.Addr, ipv4.Addr) {
	base := g.nextP2P[asn]
	g.nextP2P[asn] += 4
	if base-uint32(g.t.ASes[asn].Block.Addr) >= 0x8000 {
		panic("topology: out of p2p space in AS")
	}
	return ipv4.Addr(base + 1), ipv4.Addr(base + 2)
}

func (g *generator) allocPrivate() ipv4.Addr {
	if g.nextPriv == 0 {
		g.nextPriv = 0x0a000001
	}
	a := g.nextPriv
	g.nextPriv++
	return ipv4.Addr(a)
}

func (g *generator) newRouter(asn ASN, role RouterRole) *Router {
	r := &Router{
		ID:       RouterID(len(g.t.Routers)),
		AS:       asn,
		Role:     role,
		Loopback: g.allocLoopback(asn),
	}
	r.RespondsToPing = g.rng.Float64() < routerPingResponsive
	r.RespondsToOptions = r.RespondsToPing && g.rng.Float64() < routerOptResponsive
	r.SNMPv3 = g.rng.Float64() < snmpv3Responsive
	r.DBRViolator = g.rng.Float64() < dbrViolatorP
	r.PerPacketLB = g.rng.Float64() < perPacketLBP
	x := g.rng.Float64()
	switch {
	case x < stampEgressP:
		r.Stamp = StampEgress
	case x < stampEgressP+stampIngressP:
		r.Stamp = StampIngress
	case x < stampEgressP+stampIngressP+stampLoopbackP:
		r.Stamp = StampLoopback
	case x < stampEgressP+stampIngressP+stampLoopbackP+stampPrivateP:
		r.Stamp = StampPrivate
		r.PrivateAddr = g.allocPrivate()
	default:
		r.Stamp = StampNone
	}
	g.t.Routers = append(g.t.Routers, r)
	as := g.t.ASes[asn]
	as.Routers = append(as.Routers, r.ID)
	g.t.byAddr[r.Loopback] = AddrOwner{Kind: OwnerLoopback, Router: r.ID}
	return r
}

// connectRouters creates a link between two routers, with the /30
// allocated from ownerAS's block.
func (g *generator) connectRouters(a, b RouterID, ownerAS ASN, inter bool, latUS int32) LinkID {
	addrA, addrB := g.allocP2P(ownerAS)
	ifA := Iface{ID: IfaceID(len(g.t.Ifaces)), Router: a, Addr: addrA}
	g.t.Ifaces = append(g.t.Ifaces, ifA)
	ifB := Iface{ID: IfaceID(len(g.t.Ifaces)), Router: b, Addr: addrB}
	g.t.Ifaces = append(g.t.Ifaces, ifB)
	l := Link{ID: LinkID(len(g.t.Links)), I0: ifA.ID, I1: ifB.ID, LatencyUS: latUS, Inter: inter}
	g.t.Links = append(g.t.Links, l)
	g.t.Ifaces[ifA.ID].Link = l.ID
	g.t.Ifaces[ifB.ID].Link = l.ID
	g.t.Routers[a].Ifaces = append(g.t.Routers[a].Ifaces, ifA.ID)
	g.t.Routers[b].Ifaces = append(g.t.Routers[b].Ifaces, ifB.ID)
	g.t.byAddr[addrA] = AddrOwner{Kind: OwnerIface, Router: a, Iface: ifA.ID}
	g.t.byAddr[addrB] = AddrOwner{Kind: OwnerIface, Router: b, Iface: ifB.ID}
	return l.ID
}

func (g *generator) intraLat() int32 {
	return intraLatMinUS + g.rng.Int31n(intraLatMaxUS-intraLatMinUS+1)
}

func (g *generator) buildRouters() {
	for _, as := range g.t.ASes {
		var nCore int
		switch as.Tier {
		case Tier1:
			nCore = coreT1Min + g.rng.Intn(coreT1Max-coreT1Min+1)
		case Transit, Colo, NREN:
			nCore = coreTransitMin + g.rng.Intn(coreTransitMax-coreTransitMin+1)
		default:
			nCore = coreStubMin + g.rng.Intn(coreStubMax-coreStubMin+1)
		}
		cores := make([]RouterID, nCore)
		for i := range cores {
			cores[i] = g.newRouter(as.ASN, RoleCore).ID
		}
		// Ring + chords.
		for i := 0; i < nCore; i++ {
			if nCore > 1 {
				g.connectRouters(cores[i], cores[(i+1)%nCore], as.ASN, false, g.intraLat())
			}
		}
		// Dense chords keep the intradomain diameter at 1–2 hops, matching
		// the few router hops traceroutes observe crossing real ASes.
		for k := 0; k < nCore; k++ {
			i, j := g.rng.Intn(nCore), g.rng.Intn(nCore)
			if i != j && absInt(i-j) != 1 && absInt(i-j) != nCore-1 {
				g.connectRouters(cores[i], cores[j], as.ASN, false, g.intraLat())
			}
		}
		// Border routers: about one per two adjacencies, capped by tier.
		deg := len(as.Neighbors)
		maxB := 3
		switch as.Tier {
		case Tier1:
			maxB = 12
		case Transit, Colo:
			maxB = 8
		case NREN:
			maxB = 6
		}
		nBorder := clampInt((deg+1)/2, 1, maxB)
		for i := 0; i < nBorder; i++ {
			b := g.newRouter(as.ASN, RoleBorder)
			as.Borders = append(as.Borders, b.ID)
			g.connectRouters(b.ID, cores[g.rng.Intn(nCore)], as.ASN, false, g.intraLat())
			if nCore > 1 {
				g.connectRouters(b.ID, cores[g.rng.Intn(nCore)], as.ASN, false, g.intraLat())
			}
		}
		// Announced prefixes and access routers.
		var nPfx int
		if as.Tier == Stub {
			nPfx = 1 + g.rng.Intn(prefixesPerStubMax)
		} else {
			nPfx = 1 + g.rng.Intn(2)
		}
		for i := 0; i < nPfx; i++ {
			pfx := ipv4.Prefix{Addr: as.Block.Addr + ipv4.Addr((128+i)<<8), Bits: 24}
			as.Prefixes = append(as.Prefixes, pfx)
			acc := g.newRouter(as.ASN, RoleAccess)
			// Colo racks sit at the network edge, one hop from the
			// interconnection fabric — part of why vantage points hosted
			// there reach so many destinations within RR range
			// (Insight 1.7).
			if as.Tier == Colo && len(as.Borders) > 0 {
				g.connectRouters(acc.ID, as.Borders[g.rng.Intn(len(as.Borders))], as.ASN, false, g.intraLat())
			} else {
				g.connectRouters(acc.ID, cores[g.rng.Intn(nCore)], as.ASN, false, g.intraLat())
			}
		}
	}
}

func (g *generator) buildInterLinks() {
	for _, as := range g.t.ASes {
		for ni := range as.Neighbors {
			nb := &as.Neighbors[ni]
			if nb.ASN < as.ASN {
				continue // realize each adjacency once
			}
			other := g.t.ASes[nb.ASN]
			// The /30 comes from the provider's block (or the lower ASN
			// for peers) — this is what makes border-router IP-to-AS
			// mapping ambiguous, as in the real Internet (Appx B.2).
			owner := as.ASN
			if nb.Rel == RelProvider {
				owner = nb.ASN
			}
			// Non-stub ASes interconnect at several locations; this
			// multi-point peering is what makes interdomain links
			// frequently asymmetric at the router level (each side picks
			// its own hot-potato exit, §4.4 / Table 2).
			nLinks := 1
			switch {
			case as.Tier == Tier1 && other.Tier == Tier1:
				nLinks = 2 + g.rng.Intn(2)
			case as.Tier != Stub && other.Tier != Stub:
				nLinks = 1 + g.rng.Intn(2)
			}
			for k := 0; k < nLinks; k++ {
				ba := as.Borders[g.rng.Intn(len(as.Borders))]
				bb := other.Borders[g.rng.Intn(len(other.Borders))]
				l := g.connectRouters(ba, bb, owner, true, g.interLatBetween(as.ASN, nb.ASN))
				nb.Link = append(nb.Link, l)
				on := other.Neighbor(as.ASN)
				on.Link = append(on.Link, l)
			}
		}
	}
}

func (g *generator) buildHosts() {
	for _, as := range g.t.ASes {
		// Access routers in order of creation correspond to prefixes.
		var access []RouterID
		for _, r := range as.Routers {
			if g.t.Routers[r].Role == RoleAccess {
				access = append(access, r)
			}
		}
		for pi, pfx := range as.Prefixes {
			router := access[pi%len(access)]
			for h := 0; h < hostsPerPrefix; h++ {
				addr := pfx.Nth(uint64(1 + h))
				ping := g.rng.Float64() < hostPingResponsive
				host := Host{
					ID:             HostID(len(g.t.Hosts)),
					Addr:           addr,
					Router:         router,
					AS:             as.ASN,
					PingResponsive: ping,
					RRResponsive:   ping && g.rng.Float64() < hostRRGivenPing,
					Stamps:         g.rng.Float64() < hostStamps,
				}
				g.t.Hosts = append(g.t.Hosts, host)
				as.Hosts = append(as.Hosts, host.ID)
				g.t.byAddr[addr] = AddrOwner{Kind: OwnerHost, Host: host.ID}
			}
		}
	}
}

func (g *generator) finish() {
	t := g.t
	// AS behaviour flags.
	for _, as := range t.ASes {
		switch as.Tier {
		case Colo:
			as.AllowsSpoofing = g.rng.Float64() < 0.85
		case Tier1:
			as.AllowsSpoofing = false
		default:
			as.AllowsSpoofing = g.rng.Float64() < asAllowsSpoofingP
		}
		if as.Tier == Transit || as.Tier == Stub {
			as.FiltersOptions = g.rng.Float64() < asFiltersOptionsP
		}
	}
	// Block index for BGP-origin IP-to-AS mapping.
	t.blockByHi = make(map[uint32]ASN, len(t.ASes))
	for _, as := range t.ASes {
		t.blockByHi[uint32(as.Block.Addr)>>16] = as.ASN
	}
	// Intradomain adjacency lists.
	t.intraAdj = make([][]intraEdge, len(t.Routers))
	for li := range t.Links {
		l := &t.Links[li]
		if l.Inter {
			continue
		}
		r0, r1 := t.Ifaces[l.I0].Router, t.Ifaces[l.I1].Router
		t.intraAdj[r0] = append(t.intraAdj[r0], intraEdge{To: r1, Link: l.ID})
		t.intraAdj[r1] = append(t.intraAdj[r1], intraEdge{To: r0, Link: l.ID})
	}
	t.computeCones()
}

// computeCones computes customer cone sizes by memoized DFS over customer
// edges. The provider-selection rule (providers are always earlier-created
// ASes) guarantees the customer graph is acyclic.
func (t *Topology) computeCones() {
	memo := make([]map[ASN]bool, len(t.ASes))
	var cone func(a ASN) map[ASN]bool
	cone = func(a ASN) map[ASN]bool {
		if memo[a] != nil {
			return memo[a]
		}
		set := map[ASN]bool{a: true}
		memo[a] = set // pre-set for safety; graph is acyclic by construction
		for _, nb := range t.ASes[a].Neighbors {
			if nb.Rel == RelCustomer {
				for c := range cone(nb.ASN) {
					set[c] = true
				}
			}
		}
		return set
	}
	for _, as := range t.ASes {
		as.ConeSize = len(cone(as.ASN))
	}
}

// ASesByTier returns the ASNs of a tier, sorted.
func (t *Topology) ASesByTier(tier Tier) []ASN {
	var out []ASN
	for _, as := range t.ASes {
		if as.Tier == tier {
			out = append(out, as.ASN)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
