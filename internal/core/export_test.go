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

// ReplySlots is how many Record Route slots a reply took to stamp target
// (its marker, read as extractReverse reads it, plus one; 0 if none did).
func ReplySlots(recorded []ipv4.Addr, target ipv4.Addr, res alias.Resolver) int {
	_, marker := extractReverse(recorded, target, res)
	return marker + 1
}

// Reach exposes the reach memo: the fewest RR slots the spoofed probes of
// the vantage point at vp needed to reach a hop of hop's AS.
func (e *Engine) Reach(vp, hop ipv4.Addr) (int, bool) {
	asn, ok := e.Mapper.ASOf(hop)
	if !ok {
		return 0, false
	}
	k, ok := e.knows(fact{factReach, ipv4.Addr(asn), vp})
	return int(k.least), ok
}

// WayHome reports whether the atlas knows the way home from one of hops, new
// to the measurement, so that adoption would stop there.
func (mm *Machine) WayHome(hops []ipv4.Addr) bool { return mm.wayHome(hops) >= 0 }

// Verdicts exposes what the knowledge table holds about hop for every
// source: the vantage points out of range of it, and whether it answers no
// option packet (factMute's witness).
func (e *Engine) Verdicts(hop ipv4.Addr) (farVPs []ipv4.Addr, silent bool) {
	v, _ := e.knows(fact{kind: factVerdicts, subject: hop})
	m, _ := e.knows(fact{kind: factMute, subject: hop})
	return v.addrs, m.silent
}

// Mute reports whether a machine reads hop as mute (Machine.mute): the
// table's witness or the survey's silence, where neither heard it answer.
func (e *Engine) Mute(hop ipv4.Addr) bool {
	_, mute, _ := (&Machine{e: e, cur: hop}).mute()
	return mute
}

// Booked exposes what the machine has been charged so far — the three
// books Deliver keeps — while it is still running.
func (mm *Machine) Booked() (probes measure.Counters, durationUS int64, spoofBatches int) {
	return mm.m.count, mm.res.DurationUS, mm.res.SpoofBatches
}

// Cursor exposes the hop the machine is measuring back from. Inside a
// hop event's sink call it is still the hop the adoption was made at.
func (mm *Machine) Cursor() ipv4.Addr { return mm.cur }

// Salt exposes the salt every probe of the measurement carries
// (measure.Spec.Seq): a test that sends a probe the machine did not sends
// the very packet it would have.
func (mm *Machine) Salt() uint64 { return mm.m.salt }

// RevDist exposes the machine's reverse-distance estimate of its cursor
// (negative: none).
func (mm *Machine) RevDist() int { return mm.revDist }

// SetSpoofTimeout makes a spoofed batch short of a reply wait us instead of
// SpoofTimeoutUS.
func (e *Engine) SetSpoofTimeout(us int64) { e.spoofTimeoutUS = us }

// SetMaxHops bounds the reverse path at n hops instead of MaxHops.
func (e *Engine) SetMaxHops(n int) { e.maxHops = n }

// CacheEntries is the number of facts the engine's knowledge table holds,
// of every kind.
func (e *Engine) CacheEntries() int { return e.know.size() }

// Held exposes the hedges the machine's spoofed round holds back behind its
// lead: none once they are sent, for a whole batch, or outside a sweep.
func (mm *Machine) Held() []probe.Request { return mm.spoofReqs(mm.rr.held) }

// RuleNames names the engine's knowledge rules by bit: SetRulesOff(1<<i)
// switches off RuleNames[i].
var RuleNames = [numRules]string{
	"distance skip and start", "shared verdicts", "spoofed rounds", "chain step",
	"memo start and climb", "deaf ASes", "adoption cut", "learned reach",
	"silent lead's hedges", "short give-up", "silent direct probe",
}

// SetRulesOff switches off the knowledge rules whose bits off sets, and only
// those: the engine as it was before each of them.
func (e *Engine) SetRulesOff(off uint16) { e.off = rules(off) }
