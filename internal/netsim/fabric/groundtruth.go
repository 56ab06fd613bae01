package fabric

import (
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// This file provides ground-truth path extraction: the router-level path a
// plain (optionless) packet takes, used by the evaluation harness to score
// reverse traceroutes against the true paths, and by experiments that need
// "the real reverse path" without the cost of a packet walk.

// ForwardRouterPath returns the routers a plain packet from src injected
// at router at traverses toward dst, inclusive of the starting router and
// the terminating router. flowID fixes the per-flow load-balancing key.
// Returns nil if the packet would be dropped before termination.
func (f *Fabric) ForwardRouterPath(at topology.RouterID, dst, src ipv4.Addr, flowID uint64) []topology.RouterID {
	topo := f.Topo
	c := &walkCtx{res: &Result{}, flowID: flowID}
	rt := f.resolve(dst)
	cur := at
	path := make([]topology.RouterID, 0, 16)
	for hops := 0; hops < MaxHops; hops++ {
		path = append(path, cur)
		if rt.router == cur || (rt.host != nil && rt.host.Router == cur) {
			return path
		}
		if rt.group != nil && f.anycastSiteAt(rt.group, cur) >= 0 {
			return path
		}
		next, ok := f.nextHopIface(cur, &rt, src, false, c)
		if !ok {
			return nil
		}
		cur, _ = topo.LinkOtherEnd(topo.Ifaces[next].Link, cur)
	}
	return nil
}

// ASPath collapses a router path into its AS path (consecutive
// duplicates removed).
func (f *Fabric) ASPath(routers []topology.RouterID) []topology.ASN {
	var out []topology.ASN
	for _, r := range routers {
		asn := f.Topo.Routers[r].AS
		if len(out) == 0 || out[len(out)-1] != asn {
			out = append(out, asn)
		}
	}
	return out
}

// InvalidateRoutes drops all cached forwarding state. The dynamics module
// calls this after changing link state or tie-breaks.
func (f *Fabric) InvalidateRoutes() {
	f.Routing.Invalidate()
	f.intra.invalidate()
}
