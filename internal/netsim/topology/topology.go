// Package topology generates and represents the simulated Internet the
// Reverse Traceroute system runs over: an AS-level graph with
// customer/provider/peer relationships, per-AS router-level topologies,
// interface and prefix addressing, and a host population whose
// responsiveness follows the paper's measured rates.
//
// The generated Internet has the structural properties the paper's results
// depend on: a hierarchy with a tier-1 clique at the top and stubs at the
// bottom (so Gao–Rexford routing produces realistic, frequently asymmetric
// paths), widely-peering NRENs with cold-potato behaviour (the Fig 8b
// outliers), a flattened core with colocation-style ASes that host vantage
// points close to many networks (Insight 1.7), and routers whose Record
// Route stamping policies vary (egress, ingress, loopback, private, none —
// the §4.3 measurement artifacts).
package topology

import (
	"fmt"

	"revtr/internal/netsim/ipv4"
)

// ASN identifies an autonomous system. ASNs are dense indices starting at 0.
type ASN int32

// RouterID identifies a router globally.
type RouterID int32

// IfaceID identifies a router interface globally.
type IfaceID int32

// HostID identifies an end host globally.
type HostID int32

// LinkID identifies a router-level link globally.
type LinkID int32

// None is the sentinel for absent router/interface/link references.
const None = -1

// Tier classifies an AS's role in the hierarchy.
type Tier uint8

const (
	// Tier1 ASes form a clique of peers at the top of the hierarchy and
	// have no providers.
	Tier1 Tier = iota
	// Transit ASes buy from providers and sell to customers.
	Transit
	// Colo ASes are well-connected transit networks at colocation
	// facilities; vantage points are hosted here (Insight 1.7).
	Colo
	// NREN ASes are research networks: few customers, very wide peering,
	// multi-AS cold-potato routing (§6.2).
	NREN
	// Stub ASes originate prefixes and have no customers.
	Stub
)

func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Colo:
		return "colo"
	case NREN:
		return "nren"
	case Stub:
		return "stub"
	}
	return "unknown"
}

// Rel is the business relationship an AS has with a neighbor, from the
// AS's own perspective.
type Rel int8

const (
	// RelCustomer means the neighbor is my customer (I am its provider).
	RelCustomer Rel = iota
	// RelPeer means a settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is my provider (I am its customer).
	RelProvider
)

func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return "unknown"
}

// Invert returns the relationship from the neighbor's perspective.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	}
	return RelPeer
}

// Neighbor is an AS-level adjacency.
type Neighbor struct {
	ASN  ASN
	Rel  Rel      // from the owning AS's perspective
	Link []LinkID // router-level links realizing the adjacency
}

// AS is an autonomous system.
type AS struct {
	ASN       ASN
	Tier      Tier
	Block     ipv4.Prefix // the /16 from which all of the AS's addresses come
	Neighbors []Neighbor
	Routers   []RouterID
	Borders   []RouterID
	Prefixes  []ipv4.Prefix // announced destination prefixes
	Hosts     []HostID

	// FiltersOptions drops transiting packets that carry IP options, a
	// behaviour observed in a minority of real networks.
	FiltersOptions bool
	// AllowsSpoofing permits hosts within the AS to emit packets with
	// forged sources. Vantage points can only spoof from such ASes.
	AllowsSpoofing bool

	// ConeSize is the customer cone size (number of ASes reachable via
	// customer links, including self), as in CAIDA's dataset.
	ConeSize int

	// Pos is the AS's position on a unit square — a coarse geography.
	// Customers cluster near their first provider, so latency (which
	// scales with distance on interdomain links) exhibits regional
	// structure, and anycast traffic engineering has real "far" and
	// "near" sites (§6.1).
	Pos [2]float64
}

// Neighbor returns the adjacency with asn, or nil.
func (a *AS) Neighbor(asn ASN) *Neighbor {
	for i := range a.Neighbors {
		if a.Neighbors[i].ASN == asn {
			return &a.Neighbors[i]
		}
	}
	return nil
}

// RouterRole classifies a router within its AS.
type RouterRole uint8

const (
	// RoleCore routers form the AS backbone.
	RoleCore RouterRole = iota
	// RoleBorder routers terminate interdomain links.
	RoleBorder
	// RoleAccess routers attach end hosts.
	RoleAccess
)

// StampPolicy is what a router writes into a Record Route slot.
type StampPolicy uint8

const (
	// StampEgress records the outgoing interface address — the classic
	// RFC 791 behaviour and the reason RR hops differ from traceroute
	// hops (Fig 3).
	StampEgress StampPolicy = iota
	// StampIngress records the incoming interface address.
	StampIngress
	// StampLoopback records the router's loopback address.
	StampLoopback
	// StampPrivate records an RFC 1918 address, producing unmappable hops
	// (§5.2.2).
	StampPrivate
	// StampNone forwards RR packets without stamping, hiding the router
	// (Appx C's non-stamping case).
	StampNone
)

// Router is a simulated router.
type Router struct {
	ID       RouterID
	AS       ASN
	Role     RouterRole
	Loopback ipv4.Addr
	Ifaces   []IfaceID

	Stamp StampPolicy
	// PrivateAddr is the address stamped under StampPrivate.
	PrivateAddr ipv4.Addr

	// RespondsToPing: answers ICMP echo addressed to it.
	RespondsToPing bool
	// RespondsToOptions: answers echo requests that carry IP options.
	// Real routers frequently answer plain pings but drop option packets.
	RespondsToOptions bool
	// SNMPv3 responds to unsolicited SNMPv3 with a router identifier,
	// providing reliable alias ground truth to the measurer (§4.4).
	SNMPv3 bool
	// DBRViolator routers choose next hops using the packet source as
	// well as the destination, violating destination-based routing
	// (Appx E).
	DBRViolator bool
	// PerPacketLB routers balance packets with IP options randomly
	// rather than per flow (Appx E, Fig 10).
	PerPacketLB bool
}

// Iface is a router interface.
type Iface struct {
	ID     IfaceID
	Router RouterID
	Addr   ipv4.Addr
	Link   LinkID // None for loopback-style stub interfaces
}

// Link is a point-to-point connection between two interfaces.
type Link struct {
	ID        LinkID
	I0, I1    IfaceID
	LatencyUS int32
	Inter     bool // interdomain
	Down      bool // set by the dynamics module
}

// Host is an end host in an announced prefix.
type Host struct {
	ID     HostID
	Addr   ipv4.Addr
	Router RouterID // access router it hangs off
	AS     ASN

	PingResponsive bool
	// RRResponsive: answers echo requests carrying IP options. The paper
	// finds 78% of ping-responsive destinations do (Insight 1.2).
	RRResponsive bool
	// Stamps: whether the host records its own address in the RR option
	// when replying. Non-stamping destinations trigger the Appendix C
	// heuristics.
	Stamps bool
}

// OwnerKind says what an address belongs to.
type OwnerKind uint8

const (
	// OwnerIface is a router interface address.
	OwnerIface OwnerKind = iota
	// OwnerLoopback is a router loopback address.
	OwnerLoopback
	// OwnerHost is an end host address.
	OwnerHost
)

// AddrOwner resolves an address to its owner.
type AddrOwner struct {
	Kind   OwnerKind
	Router RouterID // valid for OwnerIface and OwnerLoopback
	Iface  IfaceID  // valid for OwnerIface
	Host   HostID   // valid for OwnerHost
}

// Topology is a complete generated Internet.
type Topology struct {
	ASes    []*AS
	Routers []*Router
	Ifaces  []Iface
	Links   []Link
	Hosts   []Host

	byAddr    map[ipv4.Addr]AddrOwner
	blockByHi map[uint32]ASN // /16 block high bits -> owning AS
	// intraAdj[r] lists (neighbor router, link) pairs within r's AS.
	intraAdj [][]intraEdge
}

type intraEdge struct {
	To   RouterID
	Link LinkID
}

// AS returns the AS with the given number.
func (t *Topology) AS(asn ASN) *AS { return t.ASes[asn] }

// Router returns the router with the given ID.
func (t *Topology) Router(id RouterID) *Router { return t.Routers[id] }

// Owner resolves an address to its owner.
func (t *Topology) Owner(a ipv4.Addr) (AddrOwner, bool) {
	o, ok := t.byAddr[a]
	return o, ok
}

// OwnerAS maps an address to the AS that truly operates it (ground truth:
// the AS of the owning router or host). Private addresses have no owner.
// Note this can differ from BlockAS for interdomain point-to-point links,
// whose /30 is allocated from one side's block — the border-router mapping
// ambiguity that bdrmapit exists to resolve (Appx B.2).
func (t *Topology) OwnerAS(a ipv4.Addr) (ASN, bool) {
	if a.IsPrivate() {
		return 0, false
	}
	if o, ok := t.byAddr[a]; ok {
		switch o.Kind {
		case OwnerHost:
			return t.Hosts[o.Host].AS, true
		default:
			return t.Routers[o.Router].AS, true
		}
	}
	return t.BlockAS(a)
}

// BlockAS maps an address to the AS whose address block contains it — what
// a RouteViews-origin IP-to-AS mapping would report.
func (t *Topology) BlockAS(a ipv4.Addr) (ASN, bool) {
	if a.IsPrivate() {
		return 0, false
	}
	asn, ok := t.blockByHi[uint32(a)>>16]
	return asn, ok
}

// BGPPrefixOf returns the routed BGP prefix containing a: one of the AS's
// announced /24s for host space, or the AS's infrastructure /17 for
// router addresses. This is the granularity ingress surveys and vantage
// point selection operate on (§4.3).
func (t *Topology) BGPPrefixOf(a ipv4.Addr) (ipv4.Prefix, bool) {
	asn, ok := t.BlockAS(a)
	if !ok {
		return ipv4.Prefix{}, false
	}
	if uint32(a)>>8&0xff >= 128 {
		return ipv4.Prefix{Addr: a.Mask(24), Bits: 24}, true
	}
	return ipv4.Prefix{Addr: t.ASes[asn].Block.Addr, Bits: 17}, true
}

// AllBGPPrefixes lists every routed prefix: all announced /24s plus each
// AS's infrastructure /17.
func (t *Topology) AllBGPPrefixes() []ipv4.Prefix {
	var out []ipv4.Prefix
	for _, as := range t.ASes {
		out = append(out, ipv4.Prefix{Addr: as.Block.Addr, Bits: 17})
		out = append(out, as.Prefixes...)
	}
	return out
}

// RouterOf returns the router owning address a, if a is an interface or
// loopback address.
func (t *Topology) RouterOf(a ipv4.Addr) (RouterID, bool) {
	o, ok := t.byAddr[a]
	if !ok || o.Kind == OwnerHost {
		return None, false
	}
	return o.Router, true
}

// HostOf returns the host owning address a.
func (t *Topology) HostOf(a ipv4.Addr) (*Host, bool) {
	o, ok := t.byAddr[a]
	if !ok || o.Kind != OwnerHost {
		return nil, false
	}
	return &t.Hosts[o.Host], true
}

// IntraNeighbors returns the intradomain adjacency of router r.
func (t *Topology) IntraNeighbors(r RouterID) []intraEdge { return t.intraAdj[r] }

// LinkBetween returns the link connecting interfaces i0 and i1 of a link.
func (t *Topology) LinkOtherEnd(l LinkID, from RouterID) (RouterID, IfaceID) {
	lk := &t.Links[l]
	if t.Ifaces[lk.I0].Router == from {
		return t.Ifaces[lk.I1].Router, lk.I1
	}
	return t.Ifaces[lk.I0].Router, lk.I0
}

// IfaceOn returns the interface of router r on link l.
func (t *Topology) IfaceOn(l LinkID, r RouterID) IfaceID {
	lk := &t.Links[l]
	if t.Ifaces[lk.I0].Router == r {
		return lk.I0
	}
	return lk.I1
}

// Aliases returns all addresses belonging to router r (ground truth used
// to build the simulated alias-resolution datasets).
func (t *Topology) Aliases(r RouterID) []ipv4.Addr {
	rt := t.Routers[r]
	out := make([]ipv4.Addr, 0, len(rt.Ifaces)+1)
	out = append(out, rt.Loopback)
	for _, i := range rt.Ifaces {
		out = append(out, t.Ifaces[i].Addr)
	}
	return out
}

// SameRouter reports whether two addresses belong to the same router
// (ground truth alias test).
func (t *Topology) SameRouter(a, b ipv4.Addr) bool {
	ra, oka := t.RouterOf(a)
	rb, okb := t.RouterOf(b)
	return oka && okb && ra == rb
}

// Stats summarizes the topology.
func (t *Topology) Stats() string {
	tiers := map[Tier]int{}
	for _, as := range t.ASes {
		tiers[as.Tier]++
	}
	nEdges := 0
	for _, as := range t.ASes {
		nEdges += len(as.Neighbors)
	}
	return fmt.Sprintf("ases=%d (tier1=%d transit=%d colo=%d nren=%d stub=%d) as-edges=%d routers=%d links=%d hosts=%d",
		len(t.ASes), tiers[Tier1], tiers[Transit], tiers[Colo], tiers[NREN], tiers[Stub],
		nEdges/2, len(t.Routers), len(t.Links), len(t.Hosts))
}
