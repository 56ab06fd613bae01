package fabric

import (
	"sync/atomic"

	"revtr/internal/netsim/topology"
)

// intraTrees caches per-target-router BFS trees within each AS: for a
// target t, tree(t) gives every router in t's AS its hop distance to t and
// the equal-cost next-hop links toward t (IGP shortest path with ECMP).
// Lookups take no lock: trees are dense in their AS (indexed by pos) and
// sit in one slot per RouterID; invalidate swaps the slot slice.
type intraTrees struct {
	topo  *topology.Topology
	pos   []int32 // pos[r] is r's index in its AS's Routers list
	slots atomic.Pointer[[]atomic.Pointer[intraTree]]
}

// intraTree is indexed by a router's pos in the target's AS.
type intraTree struct {
	dist []int32 // hops to the target; -1 if unreachable
	next [][]topology.LinkID
}

func newIntraTrees(topo *topology.Topology) *intraTrees {
	it := &intraTrees{topo: topo, pos: make([]int32, len(topo.Routers))}
	for _, as := range topo.ASes {
		for i, r := range as.Routers {
			it.pos[r] = int32(i)
		}
	}
	it.invalidate()
	return it
}

// invalidate drops cached trees (after intradomain link state changes);
// a walk that already loaded the old slots finishes on the old trees.
func (it *intraTrees) invalidate() {
	slots := make([]atomic.Pointer[intraTree], len(it.topo.Routers))
	it.slots.Store(&slots)
}

func (it *intraTrees) tree(target topology.RouterID) *intraTree {
	slot := &(*it.slots.Load())[target]
	if tr := slot.Load(); tr != nil {
		return tr
	}
	tr := it.compute(target)
	if !slot.CompareAndSwap(nil, tr) {
		return slot.Load() // another walk published first; use its tree
	}
	return tr
}

func (it *intraTrees) compute(target topology.RouterID) *intraTree {
	topo := it.topo
	n := len(topo.ASes[topo.Routers[target].AS].Routers)
	tr := &intraTree{dist: make([]int32, n), next: make([][]topology.LinkID, n)}
	for i := range tr.dist {
		tr.dist[i] = -1
	}
	tr.dist[it.pos[target]] = 0
	queue := make([]topology.RouterID, 1, n)
	queue[0] = target
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		nd := tr.dist[it.pos[x]] + 1
		for _, e := range topo.IntraNeighbors(x) {
			if topo.Links[e.Link].Down {
				continue
			}
			to := it.pos[e.To]
			switch d := tr.dist[to]; {
			case d < 0:
				tr.dist[to] = nd
				tr.next[to] = append(tr.next[to], e.Link)
				queue = append(queue, e.To)
			case d == nd:
				// Equal-cost alternative toward target.
				tr.next[to] = append(tr.next[to], e.Link)
			}
		}
	}
	return tr
}

// dist returns the hop distance from router from to target within their
// AS, or -1 if unreachable or in different ASes.
func (it *intraTrees) dist(target, from topology.RouterID) int32 {
	if it.topo.Routers[target].AS != it.topo.Routers[from].AS {
		return -1
	}
	return it.tree(target).dist[it.pos[from]]
}

// nextCands returns the equal-cost next-hop links from from toward target.
func (it *intraTrees) nextCands(target, from topology.RouterID) []topology.LinkID {
	if it.topo.Routers[target].AS != it.topo.Routers[from].AS {
		return nil
	}
	return it.tree(target).next[it.pos[from]]
}
