// Package faults is the deterministic fault layer of the simulated data
// plane: per-link random loss, per-router ICMP rate limiting, scheduled
// endpoint blackout windows (M-Lab-style vantage point dropouts), and
// transient route flaps. The real system lives on a hostile Internet —
// spoofed probes get filtered, routers rate-limit ICMP, vantage points
// drop out mid-batch — and the measurement stack above the fabric has to
// survive all of it; this package lets tests and binaries turn those
// failure modes on reproducibly.
//
// Determinism contract: every decision method is a pure function of
// (plan seed, entity identifier, virtual time, per-packet nonce). The
// plan holds no mutable decision state — a shared token count or loss
// history would make concurrent probe batches depend on goroutine
// scheduling, breaking the workers=1 ≡ workers=N bit-identity guarantee
// the probe layer provides. In particular the ICMP limiter models a
// token bucket in virtual time statelessly: each epoch starts with a
// full bucket (replies inside the burst window pass free) and then
// drains to a steady state where a reply passes with probability
// ICMPPass, decided by a deterministic per-packet draw.
//
// All methods are nil-safe: a nil *Plan injects nothing, so the fabric
// hooks run unconditionally at zero cost to fault-free deployments.
package faults

import (
	"fmt"
	"math"
	"sync/atomic"

	"revtr/internal/detrand"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/obs"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindLinkLoss is a packet lost crossing a link.
	KindLinkLoss Kind = iota
	// KindRateLimit is an ICMP reply suppressed by a router's limiter.
	KindRateLimit
	// KindBlackout is a packet lost to (or never sent from) an endpoint
	// inside a scheduled outage window.
	KindBlackout
	// KindFlap is a packet blackholed on a link that is mid route-flap.
	KindFlap

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindLinkLoss:
		return "link-loss"
	case KindRateLimit:
		return "icmp-rate-limit"
	case KindBlackout:
		return "blackout"
	case KindFlap:
		return "route-flap"
	}
	return "?"
}

// Blackout is one scheduled endpoint outage: the machine at Addr is dead
// during [FromUS, ToUS). ToUS <= 0 means the outage never ends.
type Blackout struct {
	Addr   ipv4.Addr
	FromUS int64
	ToUS   int64
}

// Default virtual-time parameters (overridable per plan).
const (
	DefaultICMPEpochUS  = 1_000_000  // 1 s limiter epoch
	DefaultICMPBurstUS  = 100_000    // bucket is full for the first 100 ms
	DefaultFlapPeriodUS = 60_000_000 // links re-roll flap state every 60 s
	DefaultFlapDownUS   = 5_000_000  // a flapping link is down for 5 s
)

// Plan is a seed-deterministic fault plan. Configure the exported fields
// (or Parse a spec string), Validate, and attach to a fabric with
// SetFaults. The zero value injects nothing.
type Plan struct {
	// Seed keys every deterministic draw. Two plans with equal fields
	// inject exactly the same faults.
	Seed uint64

	// LinkLoss is the probability a packet is dropped on each link
	// traversal (drawn per traversal, so longer paths suffer more — the
	// compounding that corrupts hop inference in the traceroute-artifact
	// literature).
	LinkLoss float64

	// ICMPFrac of routers rate-limit the ICMP they originate (echo
	// replies and time-exceeded). For a limiting router each epoch of
	// ICMPEpochUS starts with a full bucket — replies in the first
	// ICMPBurstUS pass free — after which a reply passes with
	// probability ICMPPass (the steady-state refill share).
	ICMPFrac    float64
	ICMPPass    float64
	ICMPEpochUS int64
	ICMPBurstUS int64

	// FlapFrac of links are mid-flap in any given flap period: the link
	// blackholes traffic for the first FlapDownUS of the period and is
	// withdrawn from interdomain egress choices for that window, so
	// packets reroute where an alternative exists and are lost where
	// none does. Which links flap re-rolls every period.
	FlapFrac     float64
	FlapPeriodUS int64
	FlapDownUS   int64

	// Blackouts are the scheduled endpoint outages.
	Blackouts []Blackout

	// Injection tallies per fault kind, recorded by the acting layer
	// (fabric/probe) via Record — decision methods themselves are pure
	// queries and count nothing.
	counts [numKinds]atomic.Uint64

	// total mirrors the sum into an attached registry
	// (faults_injected_total); nil-safe when no registry is attached.
	total *obs.Counter
}

// SetObs attaches the faults_injected_total counter to reg. Call before
// the plan is in use.
func (p *Plan) SetObs(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.total = reg.Counter("faults_injected_total")
}

// Record tallies one injected fault of kind k.
func (p *Plan) Record(k Kind) {
	if p == nil {
		return
	}
	p.counts[k].Add(1)
	p.total.Inc()
}

// Count reports how many faults of kind k were recorded.
func (p *Plan) Count(k Kind) uint64 {
	if p == nil {
		return 0
	}
	return p.counts[k].Load()
}

// Total reports all recorded fault injections.
func (p *Plan) Total() uint64 {
	if p == nil {
		return 0
	}
	var t uint64
	for i := range p.counts {
		t += p.counts[i].Load()
	}
	return t
}

// Enabled reports whether the plan can inject anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.LinkLoss > 0 || p.ICMPFrac > 0 || p.FlapFrac > 0 || len(p.Blackouts) > 0)
}

// Validate rejects unusable plans: NaN/Inf or out-of-range rates and
// negative or inverted time parameters.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"loss", p.LinkLoss},
		{"icmp-frac", p.ICMPFrac},
		{"icmp-pass", p.ICMPPass},
		{"flap", p.FlapFrac},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s is not a finite number", f.name)
		}
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("faults: %s=%v outside [0,1]", f.name, f.v)
		}
	}
	for _, d := range []struct {
		name string
		v    int64
	}{
		{"icmp-epoch", p.ICMPEpochUS},
		{"icmp-burst", p.ICMPBurstUS},
		{"flap-period", p.FlapPeriodUS},
		{"flap-down", p.FlapDownUS},
	} {
		if d.v < 0 {
			return fmt.Errorf("faults: %s=%d negative", d.name, d.v)
		}
	}
	if p.ICMPEpochUS > 0 && p.ICMPBurstUS > p.ICMPEpochUS {
		return fmt.Errorf("faults: icmp-burst %d exceeds epoch %d", p.ICMPBurstUS, p.ICMPEpochUS)
	}
	if p.FlapPeriodUS > 0 && p.FlapDownUS > p.FlapPeriodUS {
		return fmt.Errorf("faults: flap-down %d exceeds period %d", p.FlapDownUS, p.FlapPeriodUS)
	}
	for _, b := range p.Blackouts {
		if b.FromUS < 0 {
			return fmt.Errorf("faults: blackout of %s starts at negative time %d", b.Addr, b.FromUS)
		}
		if b.ToUS > 0 && b.ToUS <= b.FromUS {
			return fmt.Errorf("faults: blackout of %s ends (%d) before it starts (%d)", b.Addr, b.ToUS, b.FromUS)
		}
	}
	return nil
}

// icmpEpochUS / flap period accessors with defaults applied.
func (p *Plan) icmpEpochUS() int64 {
	if p.ICMPEpochUS > 0 {
		return p.ICMPEpochUS
	}
	return DefaultICMPEpochUS
}

func (p *Plan) icmpBurstUS() int64 {
	if p.ICMPBurstUS > 0 {
		return p.ICMPBurstUS
	}
	return DefaultICMPBurstUS
}

func (p *Plan) flapPeriodUS() int64 {
	if p.FlapPeriodUS > 0 {
		return p.FlapPeriodUS
	}
	return DefaultFlapPeriodUS
}

func (p *Plan) flapDownUS() int64 {
	if p.FlapDownUS > 0 {
		return p.FlapDownUS
	}
	return DefaultFlapDownUS
}

// DropOnLink reports whether the traversal of link l at virtual time tUS
// by the packet with per-packet nonce is lost.
func (p *Plan) DropOnLink(l topology.LinkID, tUS int64, nonce uint64) bool {
	if p == nil || p.LinkLoss <= 0 {
		return false
	}
	return draw(p.Seed, uint64(KindLinkLoss), uint64(uint32(l)), uint64(tUS), nonce) < p.LinkLoss
}

// RateLimited reports whether router r suppresses an ICMP reply it would
// originate at virtual time tUS for the packet with the given nonce.
func (p *Plan) RateLimited(r topology.RouterID, tUS int64, nonce uint64) bool {
	if p == nil || p.ICMPFrac <= 0 {
		return false
	}
	// Which routers limit is a stable per-router property of the plan.
	if draw(p.Seed, uint64(KindRateLimit), uint64(uint32(r)), 0, 0) >= p.ICMPFrac {
		return false
	}
	epochUS := p.icmpEpochUS()
	epoch := tUS / epochUS
	if tUS%epochUS < p.icmpBurstUS() {
		return false // bucket still full at epoch start
	}
	return draw(p.Seed, uint64(KindRateLimit)<<8, uint64(uint32(r)), uint64(epoch), nonce) >= p.ICMPPass
}

// LinkFlapped reports whether link l is mid route-flap (withdrawn and
// blackholing) at virtual time tUS.
func (p *Plan) LinkFlapped(l topology.LinkID, tUS int64) bool {
	if p == nil || p.FlapFrac <= 0 {
		return false
	}
	period := p.flapPeriodUS()
	if tUS%period >= p.flapDownUS() {
		return false
	}
	return draw(p.Seed, uint64(KindFlap), uint64(uint32(l)), uint64(tUS/period), 0) < p.FlapFrac
}

// EndpointDown reports whether the machine at a is inside a scheduled
// blackout window at virtual time tUS.
func (p *Plan) EndpointDown(a ipv4.Addr, tUS int64) bool {
	if p == nil {
		return false
	}
	for i := range p.Blackouts {
		b := &p.Blackouts[i]
		if b.Addr == a && tUS >= b.FromUS && (b.ToUS <= 0 || tUS < b.ToUS) {
			return true
		}
	}
	return false
}

// AddBlackout schedules an outage of addr over [fromUS, toUS) (toUS <= 0:
// forever) and returns the plan for chaining.
func (p *Plan) AddBlackout(addr ipv4.Addr, fromUS, toUS int64) *Plan {
	p.Blackouts = append(p.Blackouts, Blackout{Addr: addr, FromUS: fromUS, ToUS: toUS})
	return p
}

// draw maps the mixed inputs to a uniform float64 in [0, 1).
func draw(seed, kind, entity, epoch, nonce uint64) float64 {
	h := detrand.Mix(seed, kind)
	h = detrand.Mix64(h ^ entity<<32 ^ epoch)
	h = detrand.Mix64(h ^ nonce)
	return float64(h>>11) / float64(1<<53)
}
