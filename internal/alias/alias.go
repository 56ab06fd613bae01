// Package alias simulates the alias-resolution datasets the paper uses
// (Appx B.1): a MIDAR-like dataset (high precision but covering only a
// fraction of routers), an SNMPv3-like fingerprinting technique (router
// identifiers from unsolicited SNMPv3 responses, per Albakour et al.),
// and the /30–/31 point-to-point heuristic.
//
// Alias coverage is the limiting factor of the paper's router-level
// accuracy evaluation ("75% of the direct traceroute hops not seen in
// revtr 2.0 paths do not allow for alias resolution"), so the datasets
// are derived from topology ground truth with configurable coverage and
// deterministic sampling rather than assumed perfect.
package alias

import (
	"math/rand"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// Resolver answers alias questions from a particular dataset's viewpoint.
type Resolver interface {
	// SameRouter reports whether the dataset can positively identify a
	// and b as aliases of one router.
	SameRouter(a, b ipv4.Addr) bool
	// Known reports whether the dataset knows anything about a (can
	// resolve it to a router).
	Known(a ipv4.Addr) bool
}

// Midar is a MIDAR-like dataset: a subset of routers whose full alias
// sets are known.
type Midar struct {
	group map[ipv4.Addr]topology.RouterID
}

// NewMidar samples coverage of routers (deterministically in seed) and
// records their complete alias sets.
func NewMidar(topo *topology.Topology, coverage float64, seed int64) *Midar {
	rng := rand.New(rand.NewSource(seed))
	m := &Midar{group: make(map[ipv4.Addr]topology.RouterID)}
	for _, r := range topo.Routers {
		if rng.Float64() >= coverage {
			continue
		}
		for _, a := range topo.Aliases(r.ID) {
			m.group[a] = r.ID
		}
	}
	return m
}

// Known implements Resolver.
func (m *Midar) Known(a ipv4.Addr) bool { _, ok := m.group[a]; return ok }

// SameRouter implements Resolver.
func (m *Midar) SameRouter(a, b ipv4.Addr) bool {
	ra, oka := m.group[a]
	rb, okb := m.group[b]
	return oka && okb && ra == rb
}

// SNMP is the SNMPv3 fingerprinting dataset: routers that answer
// unsolicited SNMPv3 expose an engine identifier usable to cluster
// aliases (§4.4). Per the paper, 81.4% of responsive routers respond on
// all their addresses and 94.8% use one identifier for all of them.
type SNMP struct {
	id map[ipv4.Addr]uint64
}

// The dataset's imperfections, at the paper's rates (§4.4).
const (
	snmpAllAddrsFrac = 0.814 // routers responding on all addresses (else one)
	snmpSameIDFrac   = 0.948 // routers using one identifier on all addresses
)

// NewSNMP builds the dataset over the topology's SNMPv3-responsive
// routers.
func NewSNMP(topo *topology.Topology, seed int64) *SNMP {
	return newSNMP(topo, seed, snmpAllAddrsFrac, snmpSameIDFrac)
}

func newSNMP(topo *topology.Topology, seed int64, allAddrsFrac, sameIDFrac float64) *SNMP {
	rng := rand.New(rand.NewSource(seed))
	s := &SNMP{id: make(map[ipv4.Addr]uint64)}
	for _, r := range topo.Routers {
		if !r.SNMPv3 {
			continue
		}
		baseID := rng.Uint64() | 1
		aliases := topo.Aliases(r.ID)
		allAddrs := rng.Float64() < allAddrsFrac
		sameID := rng.Float64() < sameIDFrac
		for i, a := range aliases {
			if !allAddrs && i > 0 {
				continue // only the first address responds
			}
			if sameID {
				s.id[a] = baseID
			} else {
				s.id[a] = rng.Uint64() | 1
			}
		}
	}
	return s
}

// Identifier returns the SNMPv3 engine ID for a, if a responds.
func (s *SNMP) Identifier(a ipv4.Addr) (uint64, bool) {
	id, ok := s.id[a]
	return id, ok
}

// Known implements Resolver.
func (s *SNMP) Known(a ipv4.Addr) bool { _, ok := s.id[a]; return ok }

// SameRouter implements Resolver.
func (s *SNMP) SameRouter(a, b ipv4.Addr) bool {
	ia, oka := s.id[a]
	ib, okb := s.id[b]
	return oka && okb && ia == ib
}

// Slash30 applies the point-to-point heuristic: two addresses in one /30
// (or /31) are the two ends of a link, so a traceroute hop (ingress) and
// an RR hop (egress) in the same /30 belong to adjacent routers — used
// when matching RR and traceroute hops (Appx B.1). Note this identifies
// *link* correspondence, not aliasing, so SameRouter is false; use
// SameLink.
type Slash30 struct{}

// SameLink reports whether a and b look like the two ends of a
// point-to-point link.
func (Slash30) SameLink(a, b ipv4.Addr) bool {
	return a != b && (a.Mask(30) == b.Mask(30) || a.Mask(31) == b.Mask(31))
}

// Combined resolves via MIDAR first, then SNMPv3.
type Combined struct {
	Midar *Midar
	SNMP  *SNMP
}

// Known implements Resolver.
func (c *Combined) Known(a ipv4.Addr) bool {
	return c.Midar.Known(a) || c.SNMP.Known(a)
}

// SameRouter implements Resolver.
func (c *Combined) SameRouter(a, b ipv4.Addr) bool {
	if c.Midar.SameRouter(a, b) {
		return true
	}
	return c.SNMP.SameRouter(a, b)
}

// Truth is the oracle resolver (topology ground truth); used only for
// "optimistic" evaluation bounds, never by the measurement system.
type Truth struct{ Topo *topology.Topology }

// Known implements Resolver.
func (t Truth) Known(a ipv4.Addr) bool {
	_, ok := t.Topo.RouterOf(a)
	return ok
}

// SameRouter implements Resolver.
func (t Truth) SameRouter(a, b ipv4.Addr) bool { return t.Topo.SameRouter(a, b) }
