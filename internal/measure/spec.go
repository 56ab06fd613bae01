package measure

import (
	"sync/atomic"

	"revtr/internal/detrand"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
)

// Clock is a shared virtual clock in microseconds, safe for concurrent
// use. One deployment owns one Clock: the serial Prober, the concurrent
// probe pool, and every engine read the same virtual time, so cache TTLs
// and atlas ages stay consistent when eval code advances the day.
type Clock struct {
	us atomic.Int64
}

// NewClock creates a clock at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time (microseconds).
func (c *Clock) Now() int64 { return c.us.Load() }

// Advance moves the virtual clock forward.
func (c *Clock) Advance(us int64) { c.us.Add(us) }

// Set sets the virtual clock.
func (c *Clock) Set(us int64) { c.us.Store(us) }

// Kind enumerates the probe packet types.
type Kind uint8

const (
	// KindPing is a plain echo request.
	KindPing Kind = iota
	// KindRR is an echo request carrying a 9-slot Record Route option.
	KindRR
	// KindSpoofedRR is an RR echo request sent from a vantage point with a
	// spoofed source; the reply travels the reverse path to Spec.Src.
	KindSpoofedRR
	// KindTS is a tsprespec Timestamp echo request.
	KindTS
	// KindSpoofedTS is a spoofed tsprespec Timestamp echo request.
	KindSpoofedTS
	// KindTraceroutePkt is a single TTL-limited traceroute probe packet.
	KindTraceroutePkt
)

// Spec fully describes one probe packet. A Spec plus a virtual time is
// everything Issue needs; issuing the same Spec at the same time against
// the same fabric always yields the same Reply, which is what makes
// concurrent batch execution bit-identical to serial execution.
type Spec struct {
	Kind Kind
	// VP is the endpoint the packet is injected at (and, for unspoofed
	// probes, the reply receiver).
	VP Agent
	// Src is the spoofed source address for KindSpoofedRR/KindSpoofedTS
	// (the reply receiver); zero means the packet carries VP's own
	// address.
	Src ipv4.Addr
	Dst ipv4.Addr
	// Prespec is the tsprespec address list (Timestamp kinds only).
	Prespec []ipv4.Addr
	// TTL is the probe TTL (KindTraceroutePkt only).
	TTL uint8
	// Seq is the salt of the measurement the probe belongs to (0 for the
	// background services' probes). The probe's ID and load-balancer nonce
	// hash it with what the probe is (probeKey), so one measurement's two
	// alike probes are one packet and two measurements' are not. It keeps
	// the name of the sequence number it replaced: the benchmark module
	// sets it.
	Seq uint64
}

// src is the address written into the packet's source field.
func (sp Spec) src() ipv4.Addr {
	if sp.Src.IsZero() {
		return sp.VP.Addr
	}
	return sp.Src
}

// Delta is the Counters increment for one issued packet of this spec.
func (sp Spec) Delta() Counters {
	switch sp.Kind {
	case KindPing:
		return Counters{Ping: 1}
	case KindRR:
		return Counters{RR: 1}
	case KindSpoofedRR:
		return Counters{SpoofRR: 1}
	case KindTS:
		return Counters{TS: 1}
	case KindSpoofedTS:
		return Counters{SpoofTS: 1}
	case KindTraceroutePkt:
		return Counters{Traceroute: 1}
	}
	return Counters{}
}

// Reply is the outcome of one issued Spec. Sent is false when the probe
// was not put on the wire at all (a spoofed kind from a vantage point
// that cannot spoof, or a cancelled batch slot) — unsent probes are not
// accounted.
type Reply struct {
	Sent bool
	// VPDead reports that the probe was suppressed because the vantage
	// point is inside a scheduled blackout window (injected faults): the
	// VP cannot put packets on the wire at all. Always pairs with
	// Sent == false; the engine uses it to fail over to another VP.
	VPDead bool
	Ping   PingResult
	RR     RRResult
	TS     TSResult
	// Hop, EchoReply, and Delivered carry KindTraceroutePkt outcomes
	// (Delivered distinguishes an undecodable reply from silence: only
	// silence advances the traceroute's give-up counter).
	Hop       TracerouteHop
	EchoReply bool
	Delivered bool
}

// RTTUS is the responder round-trip time of the reply, or 0 when nothing
// came back. Batch virtual time is the max over these (paper batch
// semantics: probes fly concurrently).
func (r Reply) RTTUS() int64 {
	switch {
	case r.Ping.Alive:
		return r.Ping.RTTUS
	case r.RR.Responded:
		return r.RR.RTTUS
	case r.TS.Responded:
		return r.TS.RTTUS
	case r.Hop.Responded:
		return r.Hop.RTTUS
	}
	return 0
}

// probeKey derives the probe's ICMP identifier and per-packet
// load-balancer nonce from what the probe is — kind, vantage point, packet
// source, destination, TTL, each prespecified address — and its salt
// (Spec.Seq), as Paris traceroute makes a packet's path a function of its
// header. No probe's identity depends on how many went before it, so
// serial and concurrent execution put bit-identical packets on the wire,
// and a probe not sent changes no other.
func probeKey(sp Spec) (id uint16, nonce uint64) {
	h := detrand.Mix(uint64(uint32(sp.src()))<<32|uint64(uint32(sp.Dst)), sp.Seq+1)
	h = detrand.Mix(h, uint64(sp.Kind)<<40|uint64(sp.TTL)<<32|uint64(uint32(sp.VP.Addr)))
	for _, a := range sp.Prespec {
		h = detrand.Mix(h, uint64(uint32(a)))
	}
	return uint16(h >> 48), detrand.Mix64(h ^ 0xa5a5a5a55a5a5a5a)
}

// Issue sends the probe described by sp on f at virtual time nowUS and
// decodes the reply. It is a pure function of its arguments (the fabric's
// own statistics counters aside) and is safe to call concurrently.
func Issue(f *fabric.Fabric, sp Spec, nowUS int64) Reply {
	if f.VPDown(sp.VP.Addr, nowUS) {
		return Reply{VPDead: true}
	}
	switch sp.Kind {
	case KindPing:
		return issuePing(f, sp, nowUS)
	case KindRR, KindSpoofedRR:
		return issueRR(f, sp, nowUS)
	case KindTS, KindSpoofedTS:
		return issueTS(f, sp, nowUS)
	case KindTraceroutePkt:
		return issueTraceroutePkt(f, sp, nowUS)
	}
	return Reply{}
}

func issuePing(f *fabric.Fabric, sp Spec, nowUS int64) Reply {
	id, nonce := probeKey(sp)
	pkt := ipv4.BuildEchoRequest(sp.VP.Addr, sp.Dst, id, 1, 64, 0, nil)
	res := f.Inject(sp.VP.Router, pkt, nowUS, flowKey(sp.VP.Addr, sp.Dst, 0), nonce)
	out := Reply{Sent: true, Ping: PingResult{Site: -1}}
	for i := range res.Deliveries {
		if res.Deliveries[i].Site >= 0 {
			out.Ping.Site = res.Deliveries[i].Site
		}
	}
	if d, ok := replyTo(res, sp.VP.Addr); ok {
		out.Ping.Alive = true
		out.Ping.RTTUS = d.TimeUS - nowUS
	}
	return out
}

func issueRR(f *fabric.Fabric, sp Spec, nowUS int64) Reply {
	if sp.Kind == KindSpoofedRR && !sp.VP.CanSpoof {
		return Reply{}
	}
	srcAddr := sp.src()
	id, nonce := probeKey(sp)
	pkt := ipv4.BuildEchoRequest(srcAddr, sp.Dst, id, 1, 64, ipv4.RRSlots, nil)
	res := f.Inject(sp.VP.Router, pkt, nowUS, flowKey(srcAddr, sp.Dst, 0), nonce)
	out := Reply{Sent: true}
	d, ok := replyTo(res, srcAddr)
	if !ok {
		return out
	}
	var h ipv4.Header
	if _, err := h.Decode(d.Pkt); err != nil || !h.HasRR {
		return out
	}
	rec := make([]ipv4.Addr, h.RR.N)
	copy(rec, h.RR.Recorded())
	out.RR = RRResult{
		Responded: true,
		RTTUS:     d.TimeUS - nowUS,
		Recorded:  rec,
		ReplyFrom: h.Src,
		ReplyTTL:  h.TTL,
	}
	return out
}

func issueTS(f *fabric.Fabric, sp Spec, nowUS int64) Reply {
	if sp.Kind == KindSpoofedTS && !sp.VP.CanSpoof {
		return Reply{}
	}
	srcAddr := sp.src()
	id, nonce := probeKey(sp)
	pkt := ipv4.BuildEchoRequest(srcAddr, sp.Dst, id, 1, 64, 0, sp.Prespec)
	res := f.Inject(sp.VP.Router, pkt, nowUS, flowKey(srcAddr, sp.Dst, 0), nonce)
	out := Reply{Sent: true}
	d, ok := replyTo(res, srcAddr)
	if !ok {
		return out
	}
	var h ipv4.Header
	if _, err := h.Decode(d.Pkt); err != nil || !h.HasTS {
		return out
	}
	out.TS = TSResult{Responded: true, RTTUS: d.TimeUS - nowUS, Stamped: make([]bool, h.TS.N)}
	for i := 0; i < h.TS.N; i++ {
		out.TS.Stamped[i] = h.TS.Pairs[i].Stamped
	}
	return out
}

func issueTraceroutePkt(f *fabric.Fabric, sp Spec, nowUS int64) Reply {
	id, nonce := probeKey(sp)
	pkt := ipv4.BuildEchoRequest(sp.VP.Addr, sp.Dst, id, uint16(sp.TTL), sp.TTL, 0, nil)
	// Paris semantics: the flow key is constant across TTLs (and does not
	// include the nonce — traceroute packets carry no IP options, so
	// per-packet load balancers never consult the nonce either).
	res := f.Inject(sp.VP.Router, pkt, nowUS, flowKey(sp.VP.Addr, sp.Dst, 1), nonce)
	out := Reply{Sent: true}
	d, ok := replyTo(res, sp.VP.Addr)
	if !ok {
		return out
	}
	out.Delivered = true
	var h ipv4.Header
	payload, err := h.Decode(d.Pkt)
	if err != nil {
		return out
	}
	var m ipv4.ICMP
	if m.Decode(payload) != nil {
		return out
	}
	rtt := d.TimeUS - nowUS
	switch m.Type {
	case ipv4.ICMPTimeExceeded:
		out.Hop = TracerouteHop{Addr: h.Src, RTTUS: rtt, Responded: true}
	case ipv4.ICMPEchoReply:
		out.Hop = TracerouteHop{Addr: h.Src, RTTUS: rtt, Responded: true}
		out.EchoReply = true
	}
	return out
}

// RunTraceroute is the pure Paris traceroute: one probe per TTL, the
// probe at TTL t the one Spec of that TTL, salted with salt (Spec.Seq).
// Returns the result and the number of probe packets sent; a vantage
// point inside a blackout sends nothing and returns the zero result.
//
// start = 1 is the classic sweep: TTL 1, 2, … until the destination's
// echo reply or four consecutive silent hops. A larger start probes a
// window around the path's tail instead (Donnet et al.'s midpoint
// start): start, start+1, … until the echo reply, then downwards only
// until the result holds what a last-link reader needs — the TTL the
// destination first answered at and the nearest responsive public hop
// below it; TTLs never probed stay zero hops. Silence does not end the
// window. Going up it is skipped, and the fourth silent TTL in a row
// gives up as the sweep does: the destination did not answer, and the
// walk down finds the hop that stands in for it. Going down it is
// skipped like a private hop. Only four silent TTLs in a row under an
// echo reply — the sweep would have given up before it saw that reply —
// complete the classic sweep over the replies already in hand. Either
// way no packet is sent twice and every packet sent is bit-for-bit the
// one the sweep sends at that TTL. One divergence from the sweep is
// admitted: a run of four silent TTLs that begins below the lowest TTL
// the window probed makes the sweep give up early, while the window,
// which cannot see the whole run, still reports the true last link.
//
// A window climbs one TTL at a time unless ContinueTraceroute hands it
// within, which says whether a hop is in the target's AS (the stop set's
// shape, with the target named): past a responsive hop outside it, the
// window climbs climbOut TTLs, since the path has that AS's border yet to
// cross. The walk down probes the TTLs it climbed over as it meets them,
// and the one divergence admitted reads: a run of four silent TTLs the
// window did not probe whole.
//
// stop is the sweep's stop set (Donnet et al.'s Doubletree): a sweep ends
// after the first responsive hop short of the destination that stop
// holds, and says so in Stopped. A nil stop set, like a window, never
// stops early.
func RunTraceroute(f *fabric.Fabric, a Agent, dst ipv4.Addr, nowUS int64, salt uint64, start int, stop func(ipv4.Addr) bool) (TracerouteResult, int) {
	base := Spec{Kind: KindTraceroutePkt, VP: a, Dst: dst, Seq: salt}
	return runTraceroute(base, start, stop, nil, func(sp Spec) Reply { return Issue(f, sp, nowUS) })
}

// ttlReply is what the traceroute keeps of one TTL's reply.
type ttlReply struct {
	hop             TracerouteHop // zero unless the hop answered
	delivered, echo bool
}

// ttlReplies holds the replies by TTL (index 0 unused), so the sweep
// that takes over from a window reuses what the window saw.
type ttlReplies struct {
	base   Spec // the probe at TTL t is base with TTL = t
	issue  func(Spec) Reply
	within func(hop, dst ipv4.Addr) bool // the window's climb rule; nil: one TTL at a time
	got    [MaxTracerouteTTL + 1]ttlReply
	probed uint64 // bit t: got[t] holds TTL t's reply (TracerouteResult.Probed)
	sent   int
	rttUS  int64
	// dead: the vantage point is blacked out and put nothing on the wire.
	// A traceroute runs at one virtual instant, so its first probe
	// already says so and no other is attempted.
	dead bool
}

// at returns the reply at ttl, probing it unless it is already in hand
// (or the vantage point is dead).
func (r *ttlReplies) at(ttl int) *ttlReply {
	g := &r.got[ttl]
	if r.probed>>ttl&1 == 1 || r.dead {
		return g
	}
	sp := r.base
	sp.TTL = uint8(ttl)
	rep := r.issue(sp)
	*g = ttlReply{hop: rep.Hop, delivered: rep.Delivered, echo: rep.EchoReply}
	r.probed |= 1 << ttl
	if rep.VPDead {
		r.dead = true
	}
	if rep.Sent {
		r.sent++
	}
	r.rttUS += rep.Hop.RTTUS
	return g
}

// silentRun is the sweep's give-up rule: this many TTLs in a row that
// delivered nothing. A reply that does not decode, or of an unexpected
// ICMP type, is a zero hop but not silence.
const silentRun = 4

// climbOut is how many TTLs a window climbs past a responsive hop outside
// the target's AS.
const climbOut = 3

// climb is how many TTLs the window climbs past g.
func (r *ttlReplies) climb(g *ttlReply) int {
	if g.hop.Responded && r.within != nil && !r.within(g.hop.Addr, r.base.Dst) {
		return climbOut
	}
	return 1
}

// window probes from start up to the echo reply or the sweep's give-up
// point, and back down to the nearest responsive public hop. It returns
// false where the sweep has to decide: the vantage point is dead, or the
// sweep would have given up below an echo reply the window holds.
func (r *ttlReplies) window(start int) (TracerouteResult, bool) {
	top, reached := min(start, MaxTracerouteTTL), false
	for silent := 0; ; {
		g := r.at(top)
		if r.dead {
			return TracerouteResult{}, false
		}
		if reached = g.echo; reached {
			break
		}
		if silent = nextSilent(silent, g); silent == silentRun || top == MaxTracerouteTTL {
			break
		}
		top = min(top+r.climb(g), MaxTracerouteTTL)
	}
	// Down from top itself: it may be the hop that stands in. An echo reply
	// may be an overshoot — the destination first answers at the lowest TTL
	// that still draws one — and one may turn up under an upward walk that
	// lost every reply it drew. A continued walk (ContinueTraceroute) may
	// meet a dead vantage point here first.
	for ttl, silent := top, 0; ttl >= 1; ttl-- {
		g := r.at(ttl)
		if g.echo {
			top, reached, silent = ttl, true, 0
		} else if g.hop.Responded && !g.hop.Addr.IsPrivate() {
			break
		} else if silent = nextSilent(silent, g); silent == silentRun && reached || r.dead {
			return TracerouteResult{}, false
		}
	}
	out := TracerouteResult{Hops: make([]TracerouteHop, top), ReachedDst: reached, RTTUS: r.rttUS, Probed: r.probed}
	for i := range out.Hops {
		out.Hops[i] = r.got[i+1].hop
	}
	return out, true
}

// nextSilent is the length of the run of silent TTLs that ends at g, given
// the length of the run that ended at its neighbour.
func nextSilent(run int, g *ttlReply) int {
	if g.delivered {
		return 0
	}
	return run + 1
}

// runTraceroute is RunTraceroute over an abstract issue path (tests
// observe the specs it is handed, and script the replies).
func runTraceroute(base Spec, start int, stop func(ipv4.Addr) bool, within func(hop, dst ipv4.Addr) bool, issue func(Spec) Reply) (TracerouteResult, int) {
	r := ttlReplies{base: base, issue: issue, within: within}
	return r.run(start, stop)
}

// ContinueTraceroute continues prev, a traceroute from a toward dst salted
// with salt, below its hop at TTL top: that hop
// stands for the destination, and the window walks down from it. Every TTL
// prev probed is read, not sent again, and a packet sent is the one prev's
// sweep sends at its TTL, on prev's path (Paris semantics). A nil prev is
// RunTraceroute from top with no stop set and within as its climb rule.
func ContinueTraceroute(f *fabric.Fabric, a Agent, dst ipv4.Addr, nowUS int64, salt uint64, prev *TracerouteResult, top int, within func(hop, dst ipv4.Addr) bool) (TracerouteResult, int) {
	base := Spec{Kind: KindTraceroutePkt, VP: a, Dst: dst, Seq: salt}
	return continueTraceroute(base, prev, top, within, func(sp Spec) Reply { return Issue(f, sp, nowUS) })
}

// continueTraceroute is ContinueTraceroute over an abstract issue path.
func continueTraceroute(base Spec, prev *TracerouteResult, top int, within func(hop, dst ipv4.Addr) bool, issue func(Spec) Reply) (TracerouteResult, int) {
	r := ttlReplies{base: base, issue: issue, within: within}
	if prev != nil {
		for ttl := 1; ttl < top; ttl++ {
			if prev.ProbedAt(ttl) {
				h := prev.Hops[ttl-1]
				r.got[ttl] = ttlReply{hop: h, delivered: h.Responded}
				r.probed |= 1 << ttl
			}
		}
		r.got[top] = ttlReply{hop: prev.Hops[top-1], delivered: true, echo: true}
		r.probed |= 1 << top
	}
	return r.run(top, nil)
}

// run is the traceroute from start over the replies in hand.
func (r *ttlReplies) run(start int, stop func(ipv4.Addr) bool) (TracerouteResult, int) {
	if start > 1 {
		if out, ok := r.window(start); ok {
			return out, r.sent
		}
	}
	out := TracerouteResult{Swept: true}
	for ttl, silent := 1, 0; ttl <= MaxTracerouteTTL && silent < silentRun && !out.ReachedDst && !out.Stopped; ttl++ {
		g := r.at(ttl)
		if r.dead {
			return TracerouteResult{}, 0
		}
		out.Hops = append(out.Hops, g.hop)
		silent = nextSilent(silent, g)
		out.ReachedDst = g.echo
		out.Stopped = !g.echo && g.hop.Responded && stop != nil && stop(g.hop.Addr)
	}
	out.RTTUS, out.Probed = r.rttUS, r.probed
	return out, r.sent
}
