// Package fabric is the simulated data plane: it forwards serialized IPv4
// packets router-by-router over a generated topology under BGP-derived
// interdomain routes and hop-count intradomain routes with hot-potato
// egress selection.
//
// The fabric implements the behaviours Reverse Traceroute depends on and
// contends with: Record Route stamping with per-router address policies,
// tsprespec Timestamp handling, ICMP echo/time-exceeded generation (error
// sources are ingress interfaces while RR reveals egress interfaces —
// Fig 3), spoofed sources (replies route to the spoofed address), option
// filtering ASes, per-flow and per-packet load balancing, and
// destination-based-routing violators (Appx E). Packets are forwarded as
// wire bytes using the in-place mutation routines of the ipv4 package.
package fabric

import (
	"sync/atomic"

	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// MaxHops bounds a packet's router traversal, independent of TTL.
const MaxHops = 96

// perHopProcUS is fixed per-router processing latency in microseconds.
const perHopProcUS = 30

// Delivery is a packet arriving at an endpoint (a host address or an
// anycast site).
type Delivery struct {
	Pkt    []byte
	To     ipv4.Addr // destination address the packet was delivered to
	TimeUS int64     // virtual arrival time
	Site   int       // anycast site index, or -1
}

// Result is the outcome of injecting one packet: endpoint deliveries
// (including any replies generated along the way) and the router trace of
// the injected packet itself.
type Result struct {
	Deliveries []Delivery
	// Trace lists routers traversed by the injected packet, in order.
	Trace []topology.RouterID
	// ReachedDst reports whether the injected packet reached its
	// destination endpoint (even if the endpoint chose not to reply).
	ReachedDst bool
}

// AnycastSite is one attachment point of an anycast group: packets routed
// to the group that reach Router in AS Via are delivered to the site.
type AnycastSite struct {
	Name   string
	Via    topology.ASN      // neighbor AS hosting the attachment
	Router topology.RouterID // router in Via where the site machine hangs
}

// AnycastGroup is an anycast prefix with per-AS BGP route choices computed
// by the bgp path-vector engine.
type AnycastGroup struct {
	Prefix ipv4.Prefix
	// ServiceAddr is the address endpoints use for the service.
	ServiceAddr ipv4.Addr
	Routes      *bgp.Routes
	Sites       []AnycastSite
}

// Fabric is the simulated data plane.
type Fabric struct {
	Topo    *topology.Topology
	Routing *bgp.Routing

	seed    uint64
	anycast []*AnycastGroup

	intra *intraTrees

	// faults, when non-nil, is consulted on the walk and reply paths.
	// Decisions are pure functions of (plan, entity, virtual time,
	// nonce), so an attached plan preserves the fabric's determinism.
	faults *faults.Plan

	// Counters (atomic: campaigns drive one fabric from many workers).
	// Conservation invariant: packetsInjected == packetsDelivered +
	// packetsDropped + packetsAbsorbed once all walks have returned —
	// every packet (injected requests and every generated reply alike)
	// terminates in exactly one bucket.
	hopsForwarded    atomic.Uint64
	packetsInjected  atomic.Uint64
	packetsDropped   atomic.Uint64
	packetsDelivered atomic.Uint64
	packetsAbsorbed  atomic.Uint64
}

// HopsForwarded reports the total router hops traversed by all packets.
func (f *Fabric) HopsForwarded() uint64 { return f.hopsForwarded.Load() }

// PacketsInjected reports all packets that entered the fabric: injected
// requests plus every reply generated inside it.
func (f *Fabric) PacketsInjected() uint64 { return f.packetsInjected.Load() }

// PacketsDropped reports packets dropped (filtered, unroutable,
// unresponsive endpoints, TTL exhaustion without reply, injected faults).
func (f *Fabric) PacketsDropped() uint64 { return f.packetsDropped.Load() }

// PacketsDelivered reports packets that reached an endpoint delivery.
func (f *Fabric) PacketsDelivered() uint64 { return f.packetsDelivered.Load() }

// PacketsAbsorbed reports packets consumed by a router that answered
// them (echo reply, time exceeded) — neither delivered nor dropped; the
// answer itself is counted as a new injected packet.
func (f *Fabric) PacketsAbsorbed() uint64 { return f.packetsAbsorbed.Load() }

// SetFaults attaches (or with nil detaches) a fault plan. Attach before
// traffic flows; the hook is nil-safe and free when no plan is set.
func (f *Fabric) SetFaults(p *faults.Plan) { f.faults = p }

// VPDown reports whether the endpoint at a is inside a scheduled
// blackout window at tUS, recording the suppressed probe when it is.
// The probe layer consults it before putting a packet on the wire — a
// blacked-out vantage point cannot send at all.
func (f *Fabric) VPDown(a ipv4.Addr, tUS int64) bool {
	if !f.Down(a, tUS) {
		return false
	}
	f.faults.Record(faults.KindBlackout)
	return true
}

// Down is VPDown for a probe not sent: it records nothing.
func (f *Fabric) Down(a ipv4.Addr, tUS int64) bool { return f.faults.EndpointDown(a, tUS) }

// New builds a fabric over topo using routing for interdomain next hops.
func New(topo *topology.Topology, routing *bgp.Routing, seed int64) *Fabric {
	return &Fabric{
		Topo:    topo,
		Routing: routing,
		seed:    uint64(seed),
		intra:   newIntraTrees(topo),
	}
}

// AddAnycast registers an anycast group. Later groups take precedence on
// overlap.
func (f *Fabric) AddAnycast(g *AnycastGroup) { f.anycast = append(f.anycast, g) }

// ClearAnycast removes all anycast groups (between TE configurations).
func (f *Fabric) ClearAnycast() { f.anycast = nil }

func (f *Fabric) anycastFor(a ipv4.Addr) *AnycastGroup {
	for i := len(f.anycast) - 1; i >= 0; i-- {
		if f.anycast[i].Prefix.Contains(a) {
			return f.anycast[i]
		}
	}
	return nil
}

// walkCtx carries one packet's forwarding state.
type walkCtx struct {
	res     *Result
	flowID  uint64 // per-flow load-balancing key (constant per measurement flow)
	nonce   uint64 // per-packet entropy for per-packet load balancing
	isReply bool   // replies do not generate further replies
	tUS     int64  // virtual time at the current hop (route choices consult it)
}

// Inject sends pkt into the network at the given router (a host's access
// router or an anycast site's attachment router), at virtual time nowUS.
// flowID should be constant for packets of one logical flow (Paris
// traceroute semantics); nonce must differ per packet.
func (f *Fabric) Inject(at topology.RouterID, pkt []byte, nowUS int64, flowID, nonce uint64) *Result {
	// Sized once: at most one router per unit of TTL, and few paths exceed 32.
	res := &Result{Trace: make([]topology.RouterID, 0, min(int(ipv4.PacketTTL(pkt)), 32))}
	c := &walkCtx{res: res, flowID: flowID, nonce: nonce}
	f.walk(at, topology.None, pkt, nowUS, c)
	return res
}

// walk forwards pkt starting at router cur (arrived via iface arrIface,
// or None if locally injected) until delivery, drop, or hop exhaustion.
func (f *Fabric) walk(cur topology.RouterID, arrIface topology.IfaceID, pkt []byte, tUS int64, c *walkCtx) {
	f.packetsInjected.Add(1)
	topo := f.Topo
	// Resolved once: neither address nor what owns it changes during a walk.
	dst, src := ipv4.PacketDst(pkt), ipv4.PacketSrc(pkt)
	rt := f.resolve(dst)
	hasOpts := ipv4.PacketHeaderLen(pkt) > ipv4.HeaderLen
	prevAS := topology.ASN(topology.None)
	if arrIface != topology.None {
		// Reply walks start on the generating router; mark its AS.
		prevAS = topo.Routers[cur].AS
	}

	// Counted once per walk: per hop, walking cores would fight over the line.
	hops := 0
	defer func() { f.hopsForwarded.Add(uint64(hops)) }()
	for ; hops < MaxHops; hops++ {
		c.tUS = tUS
		r := topo.Routers[cur]
		if !c.isReply {
			c.res.Trace = append(c.res.Trace, cur)
		}

		// Option filtering at AS ingress.
		if hasOpts && prevAS != r.AS && topo.ASes[r.AS].FiltersOptions {
			f.packetsDropped.Add(1)
			return
		}

		// Destination processing: the packet is for this router.
		if rt.router == cur {
			f.deliverToRouter(cur, arrIface, pkt, tUS, c)
			return
		}

		// Host delivery: dst is a host hanging off this router.
		if h := rt.host; h != nil && h.Router == cur {
			f.deliverToHost(h, pkt, tUS, c)
			return
		}

		// Anycast site delivery. The site machine answers echo requests
		// like a host (stamping its service address into RR options), so
		// pings measure catchments and RTTs.
		if g := rt.group; g != nil {
			if site := f.anycastSiteAt(g, cur); site >= 0 {
				if !c.isReply {
					c.res.ReachedDst = true
				}
				f.deliver(c, Delivery{Pkt: pkt, To: dst, TimeUS: tUS, Site: site})
				if !c.isReply && ipv4.PacketProto(pkt) == ipv4.ProtoICMP {
					var hdr ipv4.Header
					if payload, err := hdr.Decode(pkt); err == nil {
						var m ipv4.ICMP
						if m.Decode(payload) == nil && m.Type == ipv4.ICMPEchoRequest {
							reply := ipv4.BuildEchoReply(pkt, dst, 64)
							if hasOpts {
								ipv4.StampRecordRoute(reply, dst)
							}
							f.startReply(cur, reply, tUS, c)
						}
					}
				}
				return
			}
		}

		// Forwarding: TTL first.
		if ipv4.DecrementTTL(pkt) == 0 {
			f.sendTimeExceeded(cur, arrIface, pkt, tUS, c)
			return
		}

		nextIface, ok := f.nextHopIface(cur, &rt, src, hasOpts, c)
		if !ok {
			f.packetsDropped.Add(1)
			return
		}

		// Stamp options on the way out.
		if hasOpts {
			f.stampTransit(cur, arrIface, nextIface, pkt, tUS)
		}

		link := &topo.Links[topo.Ifaces[nextIface].Link]
		// Injected faults on the chosen link. Flapped interdomain links
		// are withdrawn from egress choices (reroute); a packet can still
		// land on a flapped intradomain link, where it blackholes.
		if f.faults.LinkFlapped(link.ID, tUS) {
			f.faults.Record(faults.KindFlap)
			f.packetsDropped.Add(1)
			return
		}
		if f.faults.DropOnLink(link.ID, tUS, c.nonce) {
			f.faults.Record(faults.KindLinkLoss)
			f.packetsDropped.Add(1)
			return
		}
		nxt, nxtIface := topo.LinkOtherEnd(link.ID, cur)
		tUS += int64(link.LatencyUS) + perHopProcUS
		prevAS = r.AS
		cur, arrIface = nxt, nxtIface
	}
	f.packetsDropped.Add(1)
}

// deliver records an endpoint delivery.
func (f *Fabric) deliver(c *walkCtx, d Delivery) {
	if c.res.Deliveries == nil {
		c.res.Deliveries = make([]Delivery, 0, 2) // a request and its reply
	}
	c.res.Deliveries = append(c.res.Deliveries, d)
	f.packetsDelivered.Add(1)
}

// deliverToRouter handles a packet addressed to a router interface or
// loopback.
func (f *Fabric) deliverToRouter(cur topology.RouterID, arrIface topology.IfaceID, pkt []byte, tUS int64, c *walkCtx) {
	topo := f.Topo
	r := topo.Routers[cur]
	if !c.isReply {
		c.res.ReachedDst = true
	}
	if c.isReply {
		// A reply addressed to a router (e.g. a router-sourced probe):
		// deliver it as an endpoint delivery so measurement agents
		// attached to routers can observe it.
		f.deliver(c, Delivery{Pkt: pkt, To: ipv4.PacketDst(pkt), TimeUS: tUS, Site: -1})
		return
	}
	hasOpts := ipv4.PacketHeaderLen(pkt) > ipv4.HeaderLen
	if !r.RespondsToPing || (hasOpts && !r.RespondsToOptions) {
		f.packetsDropped.Add(1)
		return
	}
	if f.faults.RateLimited(cur, tUS, c.nonce) {
		f.faults.Record(faults.KindRateLimit)
		f.packetsDropped.Add(1)
		return
	}
	src := ipv4.PacketSrc(pkt)
	// The destination stamps its own RR slot before replying (Fig 1c:
	// "D records its address"). The stamped address follows the router's
	// policy; the egress is the interface the reply will leave from.
	back := f.resolve(src)
	replyIface, _ := f.nextHopIface(cur, &back, ipv4.PacketDst(pkt), hasOpts, c)
	reply := ipv4.BuildEchoReply(pkt, ipv4.PacketDst(pkt), 64)
	if hasOpts {
		f.stampPolicy(r, arrIface, replyIface, reply, tUS)
	}
	f.packetsAbsorbed.Add(1)
	f.startReply(cur, reply, tUS, c)
}

// deliverToHost handles a packet addressed to an end host.
func (f *Fabric) deliverToHost(h *topology.Host, pkt []byte, tUS int64, c *walkCtx) {
	if f.faults.EndpointDown(h.Addr, tUS) {
		f.faults.Record(faults.KindBlackout)
		f.packetsDropped.Add(1)
		return
	}
	if !c.isReply {
		c.res.ReachedDst = true
	}
	f.deliver(c, Delivery{Pkt: pkt, To: h.Addr, TimeUS: tUS, Site: -1})
	if c.isReply {
		return
	}
	// Hosts answer echo requests subject to responsiveness.
	hasOpts := ipv4.PacketHeaderLen(pkt) > ipv4.HeaderLen
	if !h.PingResponsive || (hasOpts && !h.RRResponsive) {
		return
	}
	var hdr ipv4.Header
	payload, err := hdr.Decode(pkt)
	if err != nil || hdr.Protocol != ipv4.ProtoICMP {
		return
	}
	var m ipv4.ICMP
	if m.Decode(payload) != nil || m.Type != ipv4.ICMPEchoRequest {
		return
	}
	reply := ipv4.BuildEchoReply(pkt, h.Addr, 64)
	if hasOpts && h.Stamps {
		ipv4.StampRecordRoute(reply, h.Addr)
	}
	f.startReply(h.Router, reply, tUS, c)
}

// startReply forwards a locally generated reply from router at.
func (f *Fabric) startReply(at topology.RouterID, reply []byte, tUS int64, c *walkCtx) {
	if c.isReply {
		return
	}
	rc := &walkCtx{res: c.res, flowID: c.flowID, nonce: c.nonce + 1, isReply: true}
	f.walk(at, topology.None, reply, tUS, rc)
}

// sendTimeExceeded emits the ICMP error for an expired TTL. Its source is
// the arrival (ingress) interface — the classic traceroute behaviour that
// makes traceroute reveal ingress addresses (Fig 3).
func (f *Fabric) sendTimeExceeded(cur topology.RouterID, arrIface topology.IfaceID, pkt []byte, tUS int64, c *walkCtx) {
	r := f.Topo.Routers[cur]
	if !r.RespondsToPing || c.isReply {
		f.packetsDropped.Add(1)
		return
	}
	if f.faults.RateLimited(cur, tUS, c.nonce) {
		f.faults.Record(faults.KindRateLimit)
		f.packetsDropped.Add(1)
		return
	}
	from := r.Loopback
	if arrIface != topology.None {
		from = f.Topo.Ifaces[arrIface].Addr
	}
	te := ipv4.BuildTimeExceeded(pkt, from, 64)
	f.packetsAbsorbed.Add(1)
	f.startReply(cur, te, tUS, c)
}

// stampTransit applies the router's RR/TS stamping policy while
// forwarding.
func (f *Fabric) stampTransit(cur topology.RouterID, arrIface, egrIface topology.IfaceID, pkt []byte, tUS int64) {
	f.stampPolicy(f.Topo.Routers[cur], arrIface, egrIface, pkt, tUS)
}

func (f *Fabric) stampPolicy(r *topology.Router, arrIface, egrIface topology.IfaceID, pkt []byte, tUS int64) {
	var addr ipv4.Addr
	switch r.Stamp {
	case topology.StampEgress:
		if egrIface != topology.None {
			addr = f.Topo.Ifaces[egrIface].Addr
		} else {
			addr = r.Loopback
		}
	case topology.StampIngress:
		if arrIface != topology.None {
			addr = f.Topo.Ifaces[arrIface].Addr
		} else {
			addr = r.Loopback
		}
	case topology.StampLoopback:
		addr = r.Loopback
	case topology.StampPrivate:
		addr = r.PrivateAddr
	case topology.StampNone:
		addr = 0
	}
	if !addr.IsZero() {
		ipv4.StampRecordRoute(pkt, addr)
	}
	// Timestamp: stamp if the prespecified address at the pointer is any
	// of this router's addresses.
	if ts := uint32(tUS / 1000); true {
		if ipv4.StampTimestamp(pkt, r.Loopback, ts) {
			return
		}
		for _, ifid := range r.Ifaces {
			if ipv4.StampTimestamp(pkt, f.Topo.Ifaces[ifid].Addr, ts) {
				return
			}
		}
	}
}

// anycastSiteAt reports which site of g (if any) is attached at router cur.
func (f *Fabric) anycastSiteAt(g *AnycastGroup, cur topology.RouterID) int {
	for i := range g.Sites {
		if g.Sites[i].Router == cur {
			return i
		}
	}
	return -1
}
