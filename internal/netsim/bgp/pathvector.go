package bgp

import (
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// This file implements a synchronous path-vector BGP simulation for
// special announcements: prefixes anycast from several sites, with
// per-site AS-path poisoning and per-neighbor no-export communities. It is
// the machinery behind the §6.1 traffic-engineering case study, where
// PEERING announces one prefix from 7 sites, poisons Cogent on the UFMG
// announcement, and uses Coloclue's no-export communities toward Fusix and
// True.
//
// Unlike the Gao–Rexford tree BFS (bgp.go), this engine keeps a full
// adj-RIB-in per AS and re-selects from current offers every round, so
// route withdrawal and replacement (which poisoning and communities cause)
// are handled correctly.

// AnnNeighbor is one attachment of an announcement site to the Internet.
type AnnNeighbor struct {
	ASN topology.ASN
	// Rel is the origin's relationship from the neighbor's perspective:
	// RelCustomer means the neighbor treats the origin as a customer (the
	// usual case for a stub/testbed), RelPeer a settlement-free peer.
	Rel topology.Rel
	// NoExportTo lists ASes this neighbor is told (via community) not to
	// export the route to.
	NoExportTo []topology.ASN
}

// AnnSite is one origination site of an anycast announcement.
type AnnSite struct {
	Name      string
	Neighbors []AnnNeighbor
	// Poison lists ASNs prepended into the announced path so those ASes
	// reject the route (BGP loop prevention), steering them elsewhere.
	Poison []topology.ASN
}

// Announcement is a (possibly anycast) prefix origination.
type Announcement struct {
	Prefix ipv4.Prefix
	Origin topology.ASN // virtual origin ASN (not in the topology graph)
	Sites  []AnnSite
}

// Route is an AS's selected route for an announcement.
type Route struct {
	Site  int // index into Announcement.Sites; -1 if no route
	Next  topology.ASN
	Class Class
	Path  []topology.ASN // from this AS (exclusive) to the origin (inclusive)
	// Alts lists every offer tied with the best on local preference,
	// class, and AS-path length. Real BGP resolves such ties per router
	// by IGP distance (hot potato) before falling back to router IDs, so
	// a large carrier's ingress routers can route one anycast prefix to
	// different sites — the §6.1 "Cogent splits its routes" behaviour.
	Alts []RouteAlt
}

// RouteAlt is one tied-best route alternative.
type RouteAlt struct {
	Next topology.ASN
	Site int
}

// Routes maps every AS to its selected route for an announcement.
type Routes struct {
	Ann *Announcement
	Per []Route // indexed by ASN
}

// offer is a route as it sits in an AS's adj-RIB-in.
type offer struct {
	site  int
	class Class // from the receiver's perspective
	next  topology.ASN
	path  []topology.ASN // [next, ..., origin] including poison stubs
	noExp []topology.ASN // no-export community bound to the receiver's exports
}

func containsASN(path []topology.ASN, a topology.ASN) bool {
	for _, p := range path {
		if p == a {
			return true
		}
	}
	return false
}

// Compute runs the path-vector simulation to convergence and returns
// every AS's selected route, under the same decision order as the tree
// engine: class, local preference, path length, tie-break. Deterministic
// in tb and pref.
func Compute(topo *topology.Topology, ann *Announcement, tb TieBreak, pref PrefFunc) *Routes {
	if pref == nil {
		pref = NoPref
	}
	n := len(topo.ASes)

	// nbIndex[a][b] = index of neighbor b in a's neighbor list, for O(1)
	// adj-RIB-in writes.
	nbIndex := make([]map[topology.ASN]int, n)
	for ai, as := range topo.ASes {
		m := make(map[topology.ASN]int, len(as.Neighbors))
		for i, nb := range as.Neighbors {
			m[nb.ASN] = i
		}
		nbIndex[ai] = m
	}

	// ribIn[a][i] is the offer from a's i'th neighbor; the final slot
	// holds the origin's direct announcement for site-neighbor ASes.
	ribIn := make([][]*offer, n)
	for ai, as := range topo.ASes {
		ribIn[ai] = make([]*offer, len(as.Neighbors)+1)
	}

	// Seed the direct announcements.
	for si := range ann.Sites {
		site := &ann.Sites[si]
		base := make([]topology.ASN, 0, len(site.Poison)+1)
		base = append(base, site.Poison...)
		base = append(base, ann.Origin)
		for _, nb := range site.Neighbors {
			if containsASN(base, nb.ASN) {
				continue // neighbor itself poisoned
			}
			cl := ClassProvider
			switch nb.Rel {
			case topology.RelCustomer:
				cl = ClassCustomer
			case topology.RelPeer:
				cl = ClassPeer
			}
			cand := &offer{site: si, class: cl, next: ann.Origin, path: base, noExp: nb.NoExportTo}
			slot := len(ribIn[nb.ASN]) - 1
			// Several sites may announce to the same neighbor; keep the
			// better (it would win selection anyway).
			if cur := ribIn[nb.ASN][slot]; cur == nil || betterOffer(tb, pref, nb.ASN, cand, cur) {
				ribIn[nb.ASN][slot] = cand
			}
		}
	}

	best := make([]*offer, n)
	selectBest := func(a topology.ASN) *offer {
		var sel *offer
		for _, o := range ribIn[a] {
			if o == nil || containsASN(o.path, a) {
				continue
			}
			if sel == nil || betterOffer(tb, pref, a, o, sel) {
				sel = o
			}
		}
		return sel
	}

	for round := 0; round < 2*n+10; round++ {
		changed := false
		for ai := range topo.ASes {
			a := topology.ASN(ai)
			sel := selectBest(a)
			if !sameOffer(sel, best[a]) {
				best[a] = sel
				changed = true
			}
			// Export (or withdraw) to every neighbor.
			for i, nb := range topo.ASes[a].Neighbors {
				var out *offer
				if sel != nil {
					exportable := sel.class == ClassCustomer ||
						(nb.Rel == topology.RelCustomer)
					if exportable && !containsASN(sel.noExp, nb.ASN) {
						cl := ClassProvider
						switch nb.Rel.Invert() { // a's rel from nb's perspective
						case topology.RelCustomer:
							cl = ClassCustomer
						case topology.RelPeer:
							cl = ClassPeer
						}
						path := make([]topology.ASN, 0, len(sel.path)+1)
						path = append(path, a)
						path = append(path, sel.path...)
						out = &offer{site: sel.site, class: cl, next: a, path: path}
					}
				}
				slot := nbIndex[nb.ASN][a]
				if !sameOffer(out, ribIn[nb.ASN][slot]) {
					ribIn[nb.ASN][slot] = out
					changed = true
				}
				_ = i
			}
		}
		if !changed {
			break
		}
	}

	res := &Routes{Ann: ann, Per: make([]Route, n)}
	for ai := range topo.ASes {
		s := best[ai]
		if s == nil {
			res.Per[ai] = Route{Site: -1, Next: topology.None, Class: ClassNone}
			continue
		}
		rt := Route{Site: s.site, Next: s.next, Class: s.class, Path: s.path}
		for _, o := range ribIn[ai] {
			if o == nil || containsASN(o.path, topology.ASN(ai)) {
				continue
			}
			if o.class == s.class && len(o.path) == len(s.path) &&
				pref(topology.ASN(ai), o.next) == pref(topology.ASN(ai), s.next) {
				rt.Alts = append(rt.Alts, RouteAlt{Next: o.next, Site: o.site})
			}
		}
		res.Per[ai] = rt
	}
	return res
}

func betterOffer(tb TieBreak, pref PrefFunc, a topology.ASN, cand, cur *offer) bool {
	if cand.class != cur.class {
		return cand.class < cur.class
	}
	if p1, p0 := pref(a, cand.next), pref(a, cur.next); p1 != p0 {
		return p1
	}
	if len(cand.path) != len(cur.path) {
		return len(cand.path) < len(cur.path)
	}
	return tb(a, cand.next) < tb(a, cur.next)
}

func sameOffer(a, b *offer) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.site != b.site || a.class != b.class || a.next != b.next || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return true
}
