// Package measure provides the probing primitives Reverse Traceroute is
// built from, executed against the simulated fabric: ping, Record Route
// ping, spoofed Record Route ping, tsprespec Timestamp ping, and Paris
// traceroute. Every primitive is accounted per packet type, which is how
// the Table 4 probe budget comparison is produced.
//
// The package is split into a pure per-probe issue path (Spec/Issue in
// spec.go — a deterministic function of the probe description and the
// virtual time, safe to run concurrently) and the serial Prober
// convenience wrapper below. Concurrent batch execution lives in
// internal/probe, which drives the same pure path through a worker pool.
package measure

import (
	"fmt"

	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// Agent is a measurement endpoint: an address and the router it injects
// packets at. Agents are built from topology hosts or anycast sites.
type Agent struct {
	Name     string
	Addr     ipv4.Addr
	Router   topology.RouterID
	AS       topology.ASN
	CanSpoof bool // the hosting AS does not filter spoofed sources
	Site     int  // anycast site index, or -1
}

// AgentFromHost builds an agent at a topology host.
func AgentFromHost(topo *topology.Topology, h *topology.Host) Agent {
	return Agent{
		Name:     fmt.Sprintf("host-%s", h.Addr),
		Addr:     h.Addr,
		Router:   h.Router,
		AS:       h.AS,
		CanSpoof: topo.ASes[h.AS].AllowsSpoofing,
		Site:     -1,
	}
}

// Counters tallies probe packets by type — the Table 4 columns. It is a
// plain value: Add and Sub return results instead of mutating, so
// aggregation across goroutines stays explicit (accumulate locally, or
// use probe.Pool's atomic aggregation).
type Counters struct {
	Ping       uint64
	RR         uint64
	SpoofRR    uint64
	TS         uint64
	SpoofTS    uint64
	Traceroute uint64 // traceroute probe packets
}

// Total is the grand total of probe packets sent.
func (c Counters) Total() uint64 {
	return c.Ping + c.RR + c.SpoofRR + c.TS + c.SpoofTS + c.Traceroute
}

// Add returns c plus other.
func (c Counters) Add(other Counters) Counters {
	return Counters{
		Ping:       c.Ping + other.Ping,
		RR:         c.RR + other.RR,
		SpoofRR:    c.SpoofRR + other.SpoofRR,
		TS:         c.TS + other.TS,
		SpoofTS:    c.SpoofTS + other.SpoofTS,
		Traceroute: c.Traceroute + other.Traceroute,
	}
}

// Scale returns c with every column multiplied by n (retry accounting:
// n attempts of one spec cost n times its Delta).
func (c Counters) Scale(n uint64) Counters {
	return Counters{
		Ping:       c.Ping * n,
		RR:         c.RR * n,
		SpoofRR:    c.SpoofRR * n,
		TS:         c.TS * n,
		SpoofTS:    c.SpoofTS * n,
		Traceroute: c.Traceroute * n,
	}
}

// Sub returns c minus other.
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		Ping:       c.Ping - other.Ping,
		RR:         c.RR - other.RR,
		SpoofRR:    c.SpoofRR - other.SpoofRR,
		TS:         c.TS - other.TS,
		SpoofTS:    c.SpoofTS - other.SpoofTS,
		Traceroute: c.Traceroute - other.Traceroute,
	}
}

// Prober issues probes serially on a fabric: a convenience wrapper over
// the pure Spec/Issue path for background services (atlas building,
// ingress surveys) and evaluation code. Its probes carry salt 0, so a
// probe's packet is the same whatever the prober sent before it. It is
// not safe for concurrent use (Count) — concurrent measurement probing
// goes through probe.Pool, which shares the same Clock.
type Prober struct {
	F *fabric.Fabric
	// Count accumulates packets sent.
	Count Counters

	clock *Clock
}

// NewProberWithClock creates a prober sharing an existing clock (one
// deployment: one clock).
func NewProberWithClock(f *fabric.Fabric, c *Clock) *Prober {
	return &Prober{F: f, clock: c}
}

// Clock exposes the prober's virtual clock.
func (p *Prober) Clock() *Clock { return p.clock }

// Now returns the prober's virtual clock (microseconds).
func (p *Prober) Now() int64 { return p.clock.Now() }

// Advance moves the virtual clock forward.
func (p *Prober) Advance(us int64) { p.clock.Advance(us) }

// SetNow sets the virtual clock.
func (p *Prober) SetNow(us int64) { p.clock.Set(us) }

// replyTo extracts the first delivery addressed to addr.
func replyTo(res *fabric.Result, addr ipv4.Addr) (*fabric.Delivery, bool) {
	for i := range res.Deliveries {
		if res.Deliveries[i].To == addr {
			return &res.Deliveries[i], true
		}
	}
	return nil, false
}

// PingResult is the outcome of a plain ping.
type PingResult struct {
	Alive bool
	RTTUS int64
	// Site is the anycast site index the request was delivered at, or -1
	// for unicast destinations (used to measure anycast catchments,
	// §6.1).
	Site int
}

// Ping sends one echo request from agent a to dst.
func (p *Prober) Ping(a Agent, dst ipv4.Addr) PingResult {
	p.Count.Ping++
	return Issue(p.F, Spec{Kind: KindPing, VP: a, Dst: dst}, p.clock.Now()).Ping
}

// RRResult is the outcome of a Record Route ping.
type RRResult struct {
	Responded bool
	RTTUS     int64
	// Recorded is the full RR array of the reply: forward-path stamps,
	// possibly the destination's stamp, then reverse-path stamps.
	Recorded []ipv4.Addr
	// ReplyFrom is the source address of the echo reply.
	ReplyFrom ipv4.Addr
	// ReplyTTL is the TTL the echo reply arrived with (ReverseHops).
	ReplyTTL uint8
}

// ReverseHops is the number of routers that forwarded a reply which
// arrived with TTL ttl, or -1 when the TTL does not say. The one
// assumption is made here: a reply starts out at TTL 64, as fabric builds
// every one. None arrives with 0, and one above 64 started elsewhere.
func ReverseHops(ttl uint8) int {
	const initialTTL = 64
	if ttl == 0 || ttl > initialTTL {
		return -1
	}
	return initialTTL - int(ttl)
}

// RRPing sends an echo request with a 9-slot Record Route option from
// agent a to dst. The reply (if any) is received at a.
func (p *Prober) RRPing(a Agent, dst ipv4.Addr) RRResult {
	p.Count.RR++
	return Issue(p.F, Spec{Kind: KindRR, VP: a, Dst: dst}, p.clock.Now()).RR
}

// SpoofedRRPing sends an RR echo request to dst from vantage point vp,
// spoofing src as the source; the reply travels the reverse path from dst
// to src (Insight 1.3). Returns an error-like zero result if vp cannot
// spoof.
func (p *Prober) SpoofedRRPing(vp Agent, src ipv4.Addr, dst ipv4.Addr) RRResult {
	if !vp.CanSpoof {
		return RRResult{}
	}
	p.Count.SpoofRR++
	return Issue(p.F, Spec{Kind: KindSpoofedRR, VP: vp, Src: src, Dst: dst}, p.clock.Now()).RR
}

// TSResult is the outcome of a tsprespec Timestamp ping.
type TSResult struct {
	Responded bool
	RTTUS     int64
	// Stamped[i] reports whether prespecified address i recorded a
	// timestamp.
	Stamped []bool
}

// TSPing sends a tsprespec echo request with the given prespecified
// addresses (at most 4) from a to dst.
func (p *Prober) TSPing(a Agent, dst ipv4.Addr, prespec []ipv4.Addr) TSResult {
	p.Count.TS++
	return Issue(p.F, Spec{Kind: KindTS, VP: a, Dst: dst, Prespec: prespec}, p.clock.Now()).TS
}

// TracerouteHop is one hop of a traceroute.
type TracerouteHop struct {
	Addr      ipv4.Addr // zero for an unresponsive hop ("*")
	RTTUS     int64
	Responded bool
}

// TracerouteResult is a Paris traceroute outcome. Hops is indexed by
// TTL-1; a zero hop is a TTL that was silent or, in a tail window
// (Trace.Start > 1), never probed.
type TracerouteResult struct {
	Hops       []TracerouteHop
	RTTUS      int64 // total wall time of the traceroute
	ReachedDst bool
	// Swept reports that the classic 1…N sweep produced the result: it was
	// asked for (start 1). A tail window never sweeps.
	Swept bool
	// Stopped reports that the sweep ended at its last hop because the
	// stop set holds it (Trace.Stop), short of the destination.
	Stopped bool
	// Probed has bit t set for every TTL t the traceroute probed, or read
	// from the one it continued (Trace.Prev); a tail window leaves gaps
	// where it climbed (Trace.Within), and may have probed TTLs past
	// len(Hops) before it walked down.
	Probed uint64
}

// ProbedAt reports whether the traceroute probed TTL ttl and holds its
// hop.
func (t *TracerouteResult) ProbedAt(ttl int) bool {
	return ttl >= 1 && ttl <= len(t.Hops) && t.Probed>>ttl&1 == 1
}

// MaxTracerouteTTL bounds traceroute probing.
const MaxTracerouteTTL = 40

// Traceroute runs a Paris traceroute (constant flow identifier) from a to
// dst. One probe per TTL from TTL 1 — adjacency and ground-truth callers
// need the whole path; stops at the destination's echo reply or after
// four consecutive silent hops.
func (p *Prober) Traceroute(a Agent, dst ipv4.Addr) TracerouteResult {
	return p.TracerouteUntil(a, dst, nil)
}

// TracerouteUntil is Traceroute that also stops after the first
// responsive hop stop holds (Trace.Stop): the atlas's Doubletree sweep,
// which needs no hop past one it already has.
func (p *Prober) TracerouteUntil(a Agent, dst ipv4.Addr, stop func(ipv4.Addr) bool) TracerouteResult {
	tr, sent := RunTraceroute(p.F, Trace{Agent: a, Dst: dst, Start: 1, Stop: stop}, p.clock.Now())
	p.Count.Traceroute += uint64(sent)
	return tr
}

// HopAddrs extracts the responding hop addresses of a traceroute,
// dropping unresponsive hops.
func (t *TracerouteResult) HopAddrs() []ipv4.Addr {
	var out []ipv4.Addr
	for _, h := range t.Hops {
		if h.Responded {
			out = append(out, h.Addr)
		}
	}
	return out
}

// flowKey derives a per-flow load-balancing key (Paris semantics: header
// fields only, so retransmissions follow the same path).
func flowKey(src, dst ipv4.Addr, proto uint64) uint64 {
	x := uint64(src)<<32 | uint64(uint32(dst))
	x ^= proto * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}
