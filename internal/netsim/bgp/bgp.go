// Package bgp computes interdomain routes over a generated topology.
//
// Two engines are provided. Routing.TreeTo computes, for one destination
// AS, the route every other AS selects under standard Gao–Rexford policy
// (prefer customer routes over peer routes over provider routes, then
// shortest AS path, then a deterministic tie-break) using a three-phase
// BFS — O(V+E) per destination, used for the bulk of the simulated
// Internet's prefixes. Compute (pathvector.go) is a synchronous
// path-vector simulation used for special announcements that need the full
// BGP machinery: anycast origination from multiple sites, AS-path
// poisoning, and no-export communities — the §6.1 traffic-engineering
// primitives.
package bgp

import (
	"sync"
	"sync/atomic"

	"revtr/internal/detrand"
	"revtr/internal/netsim/topology"
)

// Class ranks how a route was learned; smaller is more preferred.
type Class uint8

const (
	// ClassOrigin marks the destination AS itself.
	ClassOrigin Class = iota
	// ClassCustomer routes are learned from a customer.
	ClassCustomer
	// ClassPeer routes are learned from a settlement-free peer.
	ClassPeer
	// ClassProvider routes are learned from a provider.
	ClassProvider
	// ClassNone means no route (unreachable).
	ClassNone
)

func (c Class) String() string {
	switch c {
	case ClassOrigin:
		return "origin"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	}
	return "none"
}

// Tree is the routing tree toward one destination AS: every AS's selected
// next hop, route class, and AS-path length.
type Tree struct {
	Dst   topology.ASN
	Next  []topology.ASN // next-hop AS toward Dst; topology.None if none
	Class []Class
	Len   []uint8 // AS hops to Dst
}

// Path returns the AS path from src to the tree's destination, inclusive
// of both ends. Returns nil if src has no route.
func (tr *Tree) Path(src topology.ASN) []topology.ASN {
	if tr.Class[src] == ClassNone {
		return nil
	}
	path := make([]topology.ASN, 0, tr.Len[src]+1)
	for a := src; ; a = tr.Next[a] {
		path = append(path, a)
		if a == tr.Dst {
			return path
		}
		if len(path) > len(tr.Next) {
			panic("bgp: routing loop in tree")
		}
	}
}

// TieBreak deterministically orders otherwise-equal candidate next hops.
// It is keyed on (chooser, candidate) but not the destination, like a
// router-ID tie-break. The dynamics package swaps it to model churn.
type TieBreak func(chooser, candidate topology.ASN) uint64

// DefaultTieBreak builds a seeded tie-break function.
func DefaultTieBreak(seed int64) TieBreak {
	return func(chooser, candidate topology.ASN) uint64 {
		return detrand.Mix(uint64(seed), uint64(chooser)<<32|uint64(uint32(candidate)))
	}
}

// PrefFunc reports whether chooser sets a higher local preference on
// routes learned from candidate than on other same-class routes. Local
// preference is evaluated before AS-path length (real BGP decision
// order), so a preferred neighbor's longer route wins — the
// traffic-engineering behaviour that makes roughly half of Internet AS
// paths asymmetric (§6.2).
type PrefFunc func(chooser, candidate topology.ASN) bool

// DefaultPref marks about frac of each AS's neighbors as preferred,
// deterministically in seed.
func DefaultPref(seed int64, frac float64) PrefFunc {
	cut := uint64(frac * float64(^uint64(0)))
	return func(chooser, candidate topology.ASN) bool {
		return detrand.Mix(uint64(seed)^0xa5a5, uint64(chooser)<<32|uint64(uint32(candidate))) < cut
	}
}

// NoPref disables local-preference diversity.
func NoPref(_, _ topology.ASN) bool { return false }

// DefaultPrefFrac is the fraction of neighbor routes carrying elevated
// local preference under the default policy.
const DefaultPrefFrac = 0.15

// Routing computes and caches per-destination routing trees. A hit is an
// atomic load; mu serializes the writers (misses, policy, invalidation).
type Routing struct {
	topo *topology.Topology

	// trees[dst] is the cached tree toward dst, or nil; used[dst] is tick
	// as of its last use. tick advances per insertion, so recency counts
	// misses and a hit on an entry already current writes nothing.
	trees []atomic.Pointer[Tree]
	used  []atomic.Uint64
	tick  atomic.Uint64

	mu       sync.Mutex
	tb       TieBreak
	pref     PrefFunc
	maxCache int
	// generation invalidates the cache when dynamics change routing.
	generation uint64
}

// NewRouting creates a routing engine over topo with the default
// local-preference policy. maxCache bounds the number of cached trees
// (≥1; a tree is 6 bytes per AS): at the AS count every tree stays once
// computed, below it the least recently used one makes room.
func NewRouting(topo *topology.Topology, tb TieBreak, maxCache int) *Routing {
	if maxCache < 1 {
		maxCache = 64
	}
	return &Routing{
		topo:     topo,
		tb:       tb,
		pref:     DefaultPref(0x5eed, DefaultPrefFrac),
		trees:    make([]atomic.Pointer[Tree], len(topo.ASes)),
		used:     make([]atomic.Uint64, len(topo.ASes)),
		maxCache: maxCache,
	}
}

// Topo returns the underlying topology.
func (r *Routing) Topo() *topology.Topology { return r.topo }

// Pref returns the active local-preference function.
func (r *Routing) Pref() PrefFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pref
}

// TieBreakFn returns the active tie-break function.
func (r *Routing) TieBreakFn() TieBreak {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tb
}

// SetTieBreak replaces the tie-break (used by the dynamics module) and
// invalidates cached trees.
func (r *Routing) SetTieBreak(tb TieBreak) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tb = tb
	r.resetLocked()
}

// SetPolicy replaces both the tie-break and the local-preference function
// and invalidates cached trees.
func (r *Routing) SetPolicy(tb TieBreak, pref PrefFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tb = tb
	r.pref = pref
	r.resetLocked()
}

// Generation increments whenever routing changes; consumers use it to
// detect stale cached paths.
func (r *Routing) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Invalidate drops all cached trees (after a topology change such as a
// link failure).
func (r *Routing) Invalidate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetLocked()
}

// resetLocked empties the cache and starts a new generation.
func (r *Routing) resetLocked() {
	for i := range r.trees {
		r.trees[i].Store(nil)
	}
	r.generation++
}

// TreeTo returns the routing tree toward dst, computing it on demand.
func (r *Routing) TreeTo(dst topology.ASN) *Tree {
	if tr := r.trees[dst].Load(); tr != nil {
		if t := r.tick.Load(); r.used[dst].Load() != t {
			r.used[dst].Store(t)
		}
		return tr
	}
	r.mu.Lock()
	tb, pref, gen := r.tb, r.pref, r.generation
	r.mu.Unlock()

	tr := computeTree(r.topo, dst, tb, pref)

	r.mu.Lock()
	defer r.mu.Unlock()
	if gen != r.generation {
		return tr // routing changed under the computation: serve it, cache nothing
	}
	if won := r.trees[dst].Load(); won != nil {
		return won // another caller missed with us and published first
	}
	// Count the cache and find its least recently used tree (lowest ASN on ties).
	cached, lru := 0, -1
	for i := range r.trees {
		if r.trees[i].Load() == nil {
			continue
		}
		cached++
		if lru < 0 || r.used[i].Load() < r.used[lru].Load() {
			lru = i
		}
	}
	if cached >= r.maxCache {
		r.trees[lru].Store(nil)
	}
	r.used[dst].Store(r.tick.Add(1))
	r.trees[dst].Store(tr)
	return tr
}

// computeTree computes every AS's selected route toward dst under
// Gao–Rexford policy with local preference: routes are ranked by class
// (customer > peer > provider), then by local preference on the neighbor
// the route was learned from, then by AS-path length, then tie-break —
// the real BGP decision order, with local preference evaluated inside the
// relationship class (money still wins).
//
// Because providers are always generated before their customers
// (provider.ASN < customer.ASN — the topology guarantees an acyclic
// customer graph), each phase is a single pass in topological order:
//
//	Phase 1 (descending ASN): customer routes climb provider links.
//	Phase 2: peer routes — one peer hop off a neighbor's customer route.
//	Phase 3 (ascending ASN): provider routes descend customer links.
func computeTree(topo *topology.Topology, dst topology.ASN, tb TieBreak, pref PrefFunc) *Tree {
	n := len(topo.ASes)
	tr := &Tree{
		Dst:   dst,
		Next:  make([]topology.ASN, n),
		Class: make([]Class, n),
		Len:   make([]uint8, n),
	}
	for i := range tr.Next {
		tr.Next[i] = topology.None
		tr.Class[i] = ClassNone
	}
	tr.Class[dst] = ClassOrigin

	const noRoute = int32(1 << 20)
	// better reports whether candidate (pref=p1,len=l1,next=x1) beats the
	// current (p0,l0,x0) within one class.
	better := func(chooser topology.ASN, p1 bool, l1 int32, x1 topology.ASN, p0 bool, l0 int32, x0 topology.ASN) bool {
		if p1 != p0 {
			return p1
		}
		if l1 != l0 {
			return l1 < l0
		}
		return tb(chooser, x1) < tb(chooser, x0)
	}

	custLen := make([]int32, n)
	custPref := make([]bool, n)
	for i := range custLen {
		custLen[i] = noRoute
	}
	custLen[dst] = 0

	// Phase 1: customer routes, customers before providers.
	for xi := n - 1; xi >= 0; xi-- {
		x := topology.ASN(xi)
		if x == dst {
			continue
		}
		for _, nb := range topo.ASes[x].Neighbors {
			if nb.Rel != topology.RelCustomer || custLen[nb.ASN] == noRoute {
				continue
			}
			l := custLen[nb.ASN] + 1
			p := pref(x, nb.ASN)
			if custLen[x] == noRoute || better(x, p, l, nb.ASN, custPref[x], custLen[x], tr.Next[x]) {
				custLen[x] = l
				custPref[x] = p
				tr.Next[x] = nb.ASN
				tr.Class[x] = ClassCustomer
				tr.Len[x] = uint8(l)
			}
		}
	}

	// Phase 2: peer routes for ASes without customer routes.
	finalLen := make([]int32, n)
	copy(finalLen, custLen)
	for xi := range topo.ASes {
		x := topology.ASN(xi)
		if x == dst || custLen[x] != noRoute {
			continue
		}
		var selLen int32 = noRoute
		var selPref bool
		for _, nb := range topo.ASes[x].Neighbors {
			if nb.Rel != topology.RelPeer || custLen[nb.ASN] == noRoute {
				continue
			}
			l := custLen[nb.ASN] + 1
			p := pref(x, nb.ASN)
			if selLen == noRoute || better(x, p, l, nb.ASN, selPref, selLen, tr.Next[x]) {
				selLen, selPref = l, p
				tr.Next[x] = nb.ASN
				tr.Class[x] = ClassPeer
				tr.Len[x] = uint8(l)
			}
		}
		if selLen != noRoute {
			finalLen[x] = selLen
		}
	}

	// Phase 3: provider routes, providers before customers.
	provPref := make([]bool, n)
	for xi := 0; xi < n; xi++ {
		x := topology.ASN(xi)
		if x == dst || tr.Class[x] == ClassCustomer || tr.Class[x] == ClassPeer {
			continue
		}
		for _, nb := range topo.ASes[x].Neighbors {
			if nb.Rel != topology.RelProvider || finalLen[nb.ASN] == noRoute {
				continue
			}
			l := finalLen[nb.ASN] + 1
			p := pref(x, nb.ASN)
			if finalLen[x] == noRoute || better(x, p, l, nb.ASN, provPref[x], finalLen[x], tr.Next[x]) {
				finalLen[x] = l
				provPref[x] = p
				tr.Next[x] = nb.ASN
				tr.Class[x] = ClassProvider
				tr.Len[x] = uint8(l)
			}
		}
	}
	return tr
}
