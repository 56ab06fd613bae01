package core

import (
	"revtr/internal/alias"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// ExtractReverse exposes extractReverse to the external test package
// (which, unlike this one, can import simtest): tests that replay the
// probes a sweep did not send read the replies the way the engine would.
func ExtractReverse(recorded []ipv4.Addr, target ipv4.Addr, res alias.Resolver) []ipv4.Addr {
	hops, _ := extractReverse(recorded, target, res)
	return hops
}

// Verdicts exposes what the engine cache holds about hop for every
// source: the vantage points out of range of it, and whether it answers
// no option packet.
func (e *Engine) Verdicts(hop ipv4.Addr) (farVPs []ipv4.Addr, silent bool) {
	v := e.cache.verdicts(hop, e.Pool.Now())
	return v.farVPs, v.silent
}

// Booked exposes what the machine has been charged so far — the three
// books Deliver keeps — while it is still running.
func (mm *Machine) Booked() (probes measure.Counters, durationUS int64, spoofBatches int) {
	return mm.m.count, mm.res.DurationUS, mm.res.SpoofBatches
}

// Cursor exposes the hop the machine is measuring back from. Inside a
// hop event's sink call it is still the hop the adoption was made at.
func (mm *Machine) Cursor() ipv4.Addr { return mm.cur }

// RevDist exposes the machine's reverse-distance estimate of its cursor
// (negative: none).
func (mm *Machine) RevDist() int { return mm.revDist }

// ForgetDistance drops the estimate a reply gave and has the machine read
// a copy of its source's atlas without AS distances. Called before every
// Next it leaves the machine without a distance wherever one is read: the
// engine that sends every direct probe and starts no traceroute from a
// distance.
func (mm *Machine) ForgetDistance() {
	mm.revDist = -1
	if at := mm.src.Atlas; at != nil && at.ASHops != nil {
		blind := *at // shares the entries and indexes
		blind.ASHops = nil
		mm.src.Atlas = &blind
	}
}

// AdoptWhole turns off adoptRevealed's cut at the first revealed hop the
// atlas intersects: every revealed hop is adopted, as before the rule.
func (e *Engine) AdoptWhole() { e.adoptWhole = true }

// HideSurveySilence makes the engine blind to the ingress survey's silent
// destinations: a hop is known silent only by the cache's verdict, as
// before the survey's silence was read.
func (e *Engine) HideSurveySilence() { e.hideSurveySilence = true }

// SetSpoofTimeout makes a spoofed batch short of a reply wait us instead of
// SpoofTimeoutUS.
func (e *Engine) SetSpoofTimeout(us int64) { e.spoofTimeoutUS = us }

// SetMaxHops bounds the reverse path at n hops instead of MaxHops.
func (e *Engine) SetMaxHops(n int) { e.maxHops = n }

// CacheEntries is the number of entries the engine cache holds, of every
// kind.
func (e *Engine) CacheEntries() int { return e.cache.size() }

// WholeRounds has every spoofed round send its hedges with its lead, as one
// batch: the engine before rounds (TestLeadHedgeDifferential's "whole").
func (e *Engine) WholeRounds() { e.wholeRounds = true }

// Held exposes the hedges the machine's spoofed round holds back behind its
// lead: none once they are sent, for a whole batch, or outside a sweep.
func (mm *Machine) Held() []probe.Request { return mm.rr.held }

// NoMemoOrClimb has the engine read no memo of where a source's traceroutes
// met an AS, and climb every window one TTL at a time: every traceroute
// starts by the distance or the atlas median, as before the memo and the
// climb.
func (e *Engine) NoMemoOrClimb() { e.noMetStarts, e.inAS = true, nil }
