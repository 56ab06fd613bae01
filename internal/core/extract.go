package core

import (
	"revtr/internal/alias"
	"revtr/internal/netsim/ipv4"
)

// extractReverse segments a Record Route reply into the hops that were
// stamped on the reverse path from target back toward the source.
//
// The recorded array holds forward-path stamps, possibly the target's own
// stamp, then reverse-path stamps. The engine locates the target's stamp
// (the marker) by exact match, alias resolution, or the /30 point-to-point
// heuristic, and returns everything after it. If the target never stamps
// but the probe looped (an address appearing twice non-adjacent), the
// reverse hops follow the second occurrence (Appx C). Without any marker
// the reply is unusable: the engine cannot tell forward stamps from
// reverse ones. The marker's slot (-1: none) is returned for outOfRange.
func extractReverse(recorded []ipv4.Addr, target ipv4.Addr, res alias.Resolver) (hops []ipv4.Addr, marker int) {
	marker = -1
	// Exact or alias match: prefer the last occurrence, since the target
	// stamping twice (double stamp) means forward + reply stamps.
	for k, x := range recorded {
		if x == target || (res != nil && res.SameRouter(x, target)) {
			marker = k
		}
	}
	if marker < 0 {
		// /30 heuristic: the last forward stamp before the target is the
		// previous router's egress on the target's ingress link.
		var p2p alias.Slash30
		for k, x := range recorded {
			if p2p.SameLink(x, target) {
				marker = k
				break
			}
		}
	}
	if marker < 0 {
		// Loop heuristic: a − S − a means the probe reached the target
		// and came back through a; hops after the second a are reverse.
		first := map[ipv4.Addr]int{}
		for k, x := range recorded {
			if j, seen := first[x]; seen && k > j+1 {
				marker = k
				break
			}
			if _, seen := first[x]; !seen {
				first[x] = k
			}
		}
	}
	if marker < 0 || marker+1 >= len(recorded) {
		return nil, marker
	}
	return dedupeAdjacent(recorded[marker+1:]), marker
}

// outOfRange reports whether a reply shows its vantage point out of RR
// range of the target — nine slots full, the target's stamp last or
// nowhere — which holds whichever source the probe claimed (§4.3).
func outOfRange(recorded []ipv4.Addr, marker int) bool {
	return len(recorded) == ipv4.RRSlots && (marker < 0 || marker == ipv4.RRSlots-1)
}

// dedupeAdjacent removes immediately repeated addresses.
func dedupeAdjacent(in []ipv4.Addr) []ipv4.Addr {
	out := make([]ipv4.Addr, 0, len(in))
	for _, a := range in {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// lastProbeable returns the last address of hops that the engine can keep
// probing from (public addresses only), or zero.
func lastProbeable(hops []ipv4.Addr) ipv4.Addr {
	for i := len(hops) - 1; i >= 0; i-- {
		if !hops[i].IsPrivate() && !hops[i].IsZero() {
			return hops[i]
		}
	}
	return 0
}
