package fabric

import (
	"revtr/internal/detrand"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// route is what a walk resolves once about its destination address; none
// of it can change while the packet is in flight.
type route struct {
	dst   ipv4.Addr
	group *AnycastGroup // anycast group covering dst, or nil
	// as is the destination's AS: the operating AS for allocated
	// addresses, the block owner otherwise (the packet is carried to the
	// block owner and dropped there, like probing a dark address); None
	// for unrouted addresses.
	as     topology.ASN
	router topology.RouterID // router owning dst as an infrastructure address, or None
	host   *topology.Host    // host owning dst, or nil
}

func (f *Fabric) resolve(dst ipv4.Addr) route {
	rt := route{dst: dst, group: f.anycastFor(dst), as: topology.None, router: topology.None}
	if as, ok := f.Topo.OwnerAS(dst); ok {
		rt.as = as
	}
	if o, ok := f.Topo.Owner(dst); ok {
		if o.Kind == topology.OwnerHost {
			rt.host = &f.Topo.Hosts[o.Host]
		} else {
			rt.router = o.Router
		}
	}
	return rt
}

// localTarget is the router inside the destination AS that terminates
// dst: the owning router for infrastructure addresses, the access router
// for host addresses, None for a dark address inside the block.
func (rt *route) localTarget() topology.RouterID {
	if rt.host != nil {
		return rt.host.Router
	}
	return rt.router
}

// nextHopIface decides the egress interface router cur uses for a packet
// to rt.dst. This is where destination-based routing (and its violations),
// hot-potato egress selection, and load balancing live.
func (f *Fabric) nextHopIface(cur topology.RouterID, rt *route, src ipv4.Addr, hasOpts bool, c *walkCtx) (topology.IfaceID, bool) {
	curAS := f.Topo.Routers[cur].AS
	dst := rt.dst

	// Resolve the AS-level decision.
	var nextAS topology.ASN = topology.None
	var target topology.RouterID = topology.None

	if g := rt.group; g != nil {
		art := &g.Routes.Per[curAS]
		if art.Site < 0 {
			return topology.None, false
		}
		// Tied-best routes (same local-pref, class, AS-path length) are
		// resolved per router by IGP distance — hot potato before
		// router-id, as in the real BGP decision process. This is what
		// lets one carrier's ingress routers reach different anycast
		// sites (§6.1).
		alt := f.pickAnycastAlt(cur, g, art, c)
		if alt.Next == g.Routes.Ann.Origin {
			// We are in the site's attachment AS: head for the site router.
			target = g.Sites[alt.Site].Router
		} else {
			nextAS = alt.Next
		}
	} else {
		switch rt.as {
		case topology.None:
			return topology.None, false
		case curAS:
			if target = rt.localTarget(); target == topology.None {
				return topology.None, false
			}
		default:
			tr := f.Routing.TreeTo(rt.as)
			if tr.Class[curAS] == bgp.ClassNone {
				return topology.None, false
			}
			nextAS = tr.Next[curAS]
		}
	}

	if nextAS != topology.None {
		return f.egressToward(cur, nextAS, dst, src, hasOpts, c)
	}
	if target == cur {
		return topology.None, false // should have been delivered already
	}
	return f.intraStep(cur, target, dst, src, hasOpts, c)
}

// nearestBorders scans the live links of adjacency nb of AS asn for the
// border routers nearest to cur (hot potato). It returns their hop
// distance, -1 when no link is usable, and the tied-nearest links appended
// to eq in adjacency order; eq is stack-backed, so nothing is allocated.
func (f *Fabric) nearestBorders(cur topology.RouterID, asn topology.ASN, nb *topology.Neighbor, tUS int64, eq []topology.LinkID) (int32, []topology.LinkID) {
	best := int32(-1)
	for _, l := range nb.Link {
		if f.Topo.Links[l].Down || f.faults.LinkFlapped(l, tUS) {
			continue
		}
		d := int32(0)
		if b := f.borderEnd(l, asn); b != cur {
			if d = f.intra.dist(b, cur); d < 0 {
				continue // unreachable (should not happen)
			}
		}
		switch {
		case best < 0 || d < best:
			best, eq = d, append(eq[:0], l)
		case d == best:
			eq = append(eq, l)
		}
	}
	return best, eq
}

// egressToward picks the router-level path toward neighbor AS nextAS:
// hot potato — the adjacency link whose border router is closest to cur —
// with deterministic tie-breaking (perturbed for DBR violators and load
// balancers).
func (f *Fabric) egressToward(cur topology.RouterID, nextAS topology.ASN, dst, src ipv4.Addr, hasOpts bool, c *walkCtx) (topology.IfaceID, bool) {
	r := f.Topo.Routers[cur]
	nb := f.Topo.ASes[r.AS].Neighbor(nextAS)
	if nb == nil {
		return topology.None, false
	}
	var buf [8]topology.LinkID
	best, eq := f.nearestBorders(cur, r.AS, nb, c.tUS, buf[:0])
	if best < 0 {
		return topology.None, false
	}
	pick := f.pickLink(r, eq, dst, src, hasOpts, c)
	if best == 0 { // cur is itself the border
		return f.Topo.IfaceOn(pick, cur), true
	}
	return f.intraStep(cur, f.borderEnd(pick, r.AS), dst, src, hasOpts, c)
}

// pickAnycastAlt chooses among an AS's tied-best anycast routes by the
// current router's distance to each alternative's exit (IGP hot potato).
func (f *Fabric) pickAnycastAlt(cur topology.RouterID, g *AnycastGroup, rt *bgp.Route, c *walkCtx) bgp.RouteAlt {
	primary := bgp.RouteAlt{Next: rt.Next, Site: rt.Site}
	if len(rt.Alts) < 2 {
		return primary
	}
	topo := f.Topo
	curAS := topo.Routers[cur].AS
	best := primary
	bestDist := int32(-1)
	bestKey := uint64(0)
	var buf [8]topology.LinkID
	for _, alt := range rt.Alts {
		// Distance from cur to this alternative's exit.
		d := int32(-1)
		if alt.Next == g.Routes.Ann.Origin {
			sr := g.Sites[alt.Site].Router
			if sr == cur {
				d = 0
			} else {
				d = f.intra.dist(sr, cur)
			}
		} else if nb := topo.ASes[curAS].Neighbor(alt.Next); nb != nil {
			d, _ = f.nearestBorders(cur, curAS, nb, c.tUS, buf[:0])
		}
		if d < 0 {
			continue // no live exit this way
		}
		key := detrand.Mix(f.seed, uint64(cur)<<32|uint64(uint32(alt.Next))^uint64(alt.Site)<<16)
		if bestDist < 0 || d < bestDist || (d == bestDist && key > bestKey) {
			best, bestDist, bestKey = alt, d, key
		}
	}
	return best
}

// borderEnd returns the end of link l inside AS asn.
func (f *Fabric) borderEnd(l topology.LinkID, asn topology.ASN) topology.RouterID {
	lk := &f.Topo.Links[l]
	r0 := f.Topo.Ifaces[lk.I0].Router
	if f.Topo.Routers[r0].AS == asn {
		return r0
	}
	return f.Topo.Ifaces[lk.I1].Router
}

// intraStep takes one hop toward target within cur's AS.
func (f *Fabric) intraStep(cur, target topology.RouterID, dst, src ipv4.Addr, hasOpts bool, c *walkCtx) (topology.IfaceID, bool) {
	cands := f.intra.nextCands(target, cur)
	if len(cands) == 0 {
		return topology.None, false
	}
	r := f.Topo.Routers[cur]
	link := f.pickLink(r, cands, dst, src, hasOpts, c)
	return f.Topo.IfaceOn(link, cur), true
}

// pick deterministically selects among equal-cost candidate links.
//
//   - Default routers break ties by a fixed per-link preference (like an
//     IGP's lowest-interface-ID rule): consistent across destinations and
//     directions, which is why intradomain paths are usually traversed
//     symmetrically (90% in the paper's Table 2 study).
//   - DBR violators additionally mix in (dst, src), so the same
//     destination can take different next hops for different sources
//     (Appx E).
//   - Per-packet load balancers mix the per-packet nonce for packets with
//     IP options (options packets are balanced randomly in the wild), and
//     the flow ID otherwise (per-flow, Paris-stable).
func (f *Fabric) pickLink(r *topology.Router, cands []topology.LinkID, dst, src ipv4.Addr, hasOpts bool, c *walkCtx) topology.LinkID {
	if len(cands) == 1 {
		return cands[0]
	}
	var extra uint64
	if r.DBRViolator {
		extra = detrand.Mix(uint64(uint32(dst)), uint64(src))
	}
	if r.PerPacketLB {
		if hasOpts {
			extra = detrand.Mix(extra, c.nonce)
		} else {
			extra = detrand.Mix(extra, detrand.Mix(c.flowID, uint64(uint32(dst))))
		}
	}
	best := cands[0]
	bestKey := uint64(0)
	for i, l := range cands {
		key := detrand.Mix(f.seed^extra, uint64(r.ID)<<32|uint64(uint32(l)))
		if i == 0 || key > bestKey {
			best, bestKey = l, key
		}
	}
	return best
}
