// Package atlas implements the traceroute atlas (Q1) and the RR-atlas
// intersection technique (Q2, §4.2).
//
// An Atlas holds traceroutes from distributed probes toward one Reverse
// Traceroute source. A reverse traceroute that reaches any hop of an atlas
// traceroute can, under destination-based routing, adopt the traceroute's
// remaining suffix toward the source. Because routers expose different
// addresses to traceroute (ingress interfaces) and to Record Route (egress
// interfaces, loopbacks, …), the atlas also issues background RR probes to
// every traceroute hop to learn, ahead of time, which RR-visible addresses
// correspond to which traceroute position — so runtime intersection is a
// pure map lookup with no online alias resolution.
//
// The Service builds an atlas Doubletree-style (Donnet et al.): a probe's
// traceroute stops at the first hop the atlas already holds, and the
// entry is that measured prefix plus a copy of the holding entry's suffix.
// Each hop is RR-probed once per atlas, whichever entries share it.
package atlas

import (
	"slices"
	"sync/atomic"

	"revtr/internal/alias"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// Entry is one atlas traceroute: the hop addresses measured from a probe
// toward the source, oldest-first (the last hop is at/near the source).
type Entry struct {
	ID           int
	ProbeName    string
	ProbeAS      int32
	Hops         []ipv4.Addr // responsive traceroute hops, in order toward the source
	MeasuredAtUS int64
	// useful records whether any reverse traceroute intersected this
	// entry since the last refresh — the Random++ replacement signal
	// (Appx D.2.1). Atomic because concurrent measurements mark entries
	// while the service reads them; use MarkUseful/WasUseful.
	useful atomic.Bool
	// Stale is set by the staleness auditor when a fresh re-measurement
	// disagrees (Fig 9d).
	Stale bool
}

// MarkUseful records that a reverse traceroute intersected this entry
// since the last refresh. Safe for concurrent use.
func (e *Entry) MarkUseful() { e.useful.Store(true) }

// WasUseful reports whether the entry was intersected since the last
// refresh.
func (e *Entry) WasUseful() bool { return e.useful.Load() }

// hopRef locates a hop within the atlas.
type hopRef struct {
	entry *Entry
	pos   int
}

// Intersection is a successful atlas lookup: the reverse path has reached
// Entry.Hops[Pos], so the rest of the reverse path follows the suffix.
type Intersection struct {
	Entry *Entry
	Pos   int
	// Suffix is the remaining path toward the source, excluding the
	// matched hop itself.
	Suffix []ipv4.Addr
	// ViaRRAlias reports whether the match came from the RR-atlas
	// aliases rather than a direct traceroute address.
	ViaRRAlias bool
}

// Atlas is the per-source traceroute atlas.
type Atlas struct {
	Source  measure.Agent
	Entries []*Entry
	// MedianHops is the median length (responsive hops) of the atlas's
	// traceroutes as of the last build or refresh, 0 for an atlas the
	// Service has not filled. Paths into the source are about as long as
	// paths out of it, so this is the TTL at which a traceroute from the
	// source that needs only the far end of the path starts probing when
	// nothing better is known of the target (core's symStage: a target read
	// off an earlier traceroute starts where it answered that one).
	MedianHops int
	// ASHops is, per AS, the fewest hops from the source at which an entry
	// crossed it as of the last build or refresh (core's distance): hop i
	// counts as len(Hops)-i, the entry's probe's own AS as len(Hops)+1.
	ASHops map[topology.ASN]int
	// RRDeaf is, as of the last build or refresh, true for an AS where
	// entries hold two RR-probed hops or more and no ping to any of them,
	// direct or spoofed, drew a reply: this source's option packets do not
	// come home from it (core's stepTop opens no RR stage there). An AS
	// where one hop answered maps to false.
	RRDeaf map[topology.ASN]bool
	// RRSpoofedOnly is, as of the last build or refresh, true for an AS
	// where an entry's hop drew no reply to the source's own RR ping and a
	// reply to a spoofed one: the source's option packets do not reach the
	// AS, though its replies come home (core's RR stage re-asks a silent
	// direct probe there).
	RRSpoofedOnly map[topology.ASN]bool

	nextID int
	index  map[ipv4.Addr]hopRef // direct traceroute hop addresses
	// rrIndex maps an RR-visible alias to the traceroute hop it aligned
	// to (§4.2); a lookup resolves it through index, so it follows the
	// hop to whichever entry holds it now.
	rrIndex map[ipv4.Addr]ipv4.Addr
	// probed holds the hops BuildRRAliases has RR-probed (once per atlas)
	// and what their pings drew.
	probed map[ipv4.Addr]rrPing
}

// rrPing is what a hop's background RR pings drew: no reply, a reply to
// the source's own ping, or a reply to a spoofed one only.
type rrPing uint8

const (
	pingSilent rrPing = iota
	pingDirect
	pingSpoofed
)

// New creates an empty atlas for a source.
func New(source measure.Agent) *Atlas {
	return &Atlas{
		Source:  source,
		index:   make(map[ipv4.Addr]hopRef),
		rrIndex: make(map[ipv4.Addr]ipv4.Addr),
		probed:  make(map[ipv4.Addr]rrPing),
	}
}

// Add inserts a traceroute measured at nowUS. Hops must be ordered toward
// the source and contain only responsive hops.
func (a *Atlas) Add(probeName string, probeAS int32, hops []ipv4.Addr, nowUS int64) *Entry {
	e := &Entry{
		ID:           a.nextID,
		ProbeName:    probeName,
		ProbeAS:      probeAS,
		Hops:         hops,
		MeasuredAtUS: nowUS,
	}
	a.nextID++
	a.Entries = append(a.Entries, e)
	a.claim(e)
	return e
}

// claim indexes e's hops that no entry holds yet. First writer wins:
// earlier entries keep their hop claims so suffixes stay internally
// consistent.
func (a *Atlas) claim(e *Entry) {
	for i, h := range e.Hops {
		if !a.holds(h) {
			a.index[h] = hopRef{entry: e, pos: i}
		}
	}
}

// holds reports whether some entry has h as a direct hop: the stop set of
// the Doubletree sweep.
func (a *Atlas) holds(h ipv4.Addr) bool {
	_, ok := a.index[h]
	return ok
}

// adopt completes a traceroute that stopped at a hop the atlas holds:
// hops, then a copy of the holding entry's suffix from that hop on.
func (a *Atlas) adopt(hops []ipv4.Addr) []ipv4.Addr {
	met := a.index[hops[len(hops)-1]]
	return append(hops, met.entry.Hops[met.pos+1:]...)
}

// Remove deletes entries and their index claims. A hop that a surviving
// entry also holds (a copied suffix, say) passes to the earliest one.
func (a *Atlas) Remove(es ...*Entry) {
	a.Entries = slices.DeleteFunc(a.Entries, func(e *Entry) bool { return slices.Contains(es, e) })
	for _, e := range es {
		for _, h := range e.Hops {
			if ref, ok := a.index[h]; ok && ref.entry == e {
				delete(a.index, h)
			}
		}
	}
	for _, e := range a.Entries {
		a.claim(e)
	}
}

// Lookup checks whether addr is on (or RR-aliases to) an atlas traceroute
// and returns the suffix toward the source.
func (a *Atlas) Lookup(addr ipv4.Addr) (Intersection, bool) {
	ref, ok := a.index[addr]
	viaRR := false
	if hop, alias := a.rrIndex[addr]; alias && !ok {
		ref, ok = a.index[hop]
		viaRR = ok
	}
	if !ok {
		return Intersection{}, false
	}
	return Intersection{
		Entry:      ref.entry,
		Pos:        ref.pos,
		Suffix:     ref.entry.Hops[ref.pos+1:],
		ViaRRAlias: viaRR,
	}, true
}

// SitePicker selects spoofing vantage points for a background RR probe
// toward target (closest-first). The deployment wires this to the ingress
// service so RR-atlas probes use the §4.3 vantage point selection.
type SitePicker func(target ipv4.Addr) []measure.Agent

// BuildRRAliases issues the §4.2 background measurements for entry e:
// an RR ping from the source (spoofed as the source from vantage points
// near the hop if unanswered; a hop out of range gets no alias) to each
// traceroute hop the atlas has not probed yet, recording which RR-visible
// addresses correspond to which traceroute positions. A hop is probed once
// per atlas: an entry that shares it, or a re-measure, finds its aliases.
//
// Alignment of RR stamps to traceroute positions uses, in order: identity
// (ingress-stamping routers), the /30 point-to-point heuristic (an RR
// egress stamp shares the /30 of the next hop's traceroute ingress), the
// alias dataset, and finally sequential inference (Appx B.1).
func (a *Atlas) BuildRRAliases(p *measure.Prober, pick SitePicker, res alias.Resolver, e *Entry) {
	var p2p alias.Slash30
	for i, h := range e.Hops {
		if _, done := a.probed[h]; done {
			continue
		}
		rr := p.RRPing(a.Source, h)
		ping := pingSilent
		if rr.Responded {
			ping = pingDirect
		}
		if !rr.Responded || len(rr.Recorded) == 0 {
			// Unanswered: spoof from up to three vantage points near it.
			tried := 0
			for _, s := range pick(h) {
				if !s.CanSpoof || s.Addr == a.Source.Addr {
					continue
				}
				rr = p.SpoofedRRPing(s, a.Source.Addr, h)
				if rr.Responded && ping == pingSilent {
					ping = pingSpoofed
				}
				tried++
				if rr.Responded && len(rr.Recorded) > 0 {
					break
				}
				if tried >= 3 {
					break
				}
			}
		}
		a.probed[h] = ping
		if !rr.Responded {
			continue
		}
		a.associate(rr.Recorded, e, i, res, p2p)
	}
}

// FixedSites adapts a static site list into a SitePicker.
func FixedSites(sites []measure.Agent) SitePicker {
	return func(ipv4.Addr) []measure.Agent { return sites }
}

// associate aligns the recorded RR addresses of a probe to hop position
// probedPos of entry e and fills rrIndex.
func (a *Atlas) associate(recorded []ipv4.Addr, e *Entry, probedPos int, res alias.Resolver, p2p alias.Slash30) {
	h := e.Hops[probedPos]
	// Find the marker: the first recorded address attributable to the
	// probed hop's router or its ingress link.
	marker := -1
	for k, x := range recorded {
		if x == h || p2p.SameLink(x, h) || (res != nil && res.SameRouter(x, h)) {
			marker = k
			break
		}
	}
	if marker < 0 {
		return
	}
	// Addresses from the marker on belong to positions probedPos,
	// probedPos+1, …: refine with identity//30 matches against the
	// traceroute, fall back to sequential inference.
	pos := probedPos
	for k := marker; k < len(recorded); k++ {
		x := recorded[k]
		matched := false
		for j := pos; j < len(e.Hops) && j <= pos+2; j++ {
			if x == e.Hops[j] ||
				(j+1 < len(e.Hops) && p2p.SameLink(x, e.Hops[j+1])) ||
				(res != nil && res.SameRouter(x, e.Hops[j])) {
				pos = j
				matched = true
				break
			}
		}
		if !matched && k > marker {
			pos++ // sequential inference
		}
		if pos >= len(e.Hops) {
			break
		}
		if a.holds(x) {
			continue
		}
		// An alias whose hop no entry holds any more goes to this one.
		if hop, dup := a.rrIndex[x]; !dup || !a.holds(hop) {
			a.rrIndex[x] = e.Hops[pos]
		}
	}
}

// summarize recomputes MedianHops, ASHops, RRDeaf and RRSpoofedOnly, hops
// mapped by m.
func (a *Atlas) summarize(m ip2as.Mapper) {
	a.MedianHops, a.ASHops, a.RRDeaf, a.RRSpoofedOnly = 0, nil, nil, nil
	if len(a.Entries) == 0 {
		return
	}
	a.ASHops = make(map[topology.ASN]int)
	a.RRDeaf = make(map[topology.ASN]bool)
	a.RRSpoofedOnly = make(map[topology.ASN]bool)
	crossed := func(asn topology.ASN, hops int) {
		if d, ok := a.ASHops[asn]; !ok || hops < d {
			a.ASHops[asn] = hops
		}
	}
	silent := make(map[topology.ASN]ipv4.Addr) // an AS's first unanswered hop
	lens := make([]int, len(a.Entries))
	for i, e := range a.Entries {
		lens[i] = len(e.Hops)
		crossed(topology.ASN(e.ProbeAS), len(e.Hops)+1)
		for j, h := range e.Hops {
			asn, ok := m.ASOf(h)
			if !ok {
				continue
			}
			crossed(asn, len(e.Hops)-j)
			// One answered hop clears the AS for good; a second silent hop
			// makes it deaf, the first one alone may be its router's policy.
			ping, probed := a.probed[h]
			_, settled := a.RRDeaf[asn]
			if ping == pingSpoofed {
				a.RRSpoofedOnly[asn] = true
			}
			switch first, heard := silent[asn]; {
			case !probed:
			case ping != pingSilent:
				a.RRDeaf[asn] = false
			case !heard:
				silent[asn] = h
			case !settled && first != h:
				a.RRDeaf[asn] = true
			}
		}
	}
	slices.Sort(lens)
	a.MedianHops = lens[len(lens)/2]
}

// ResetUseful clears the per-refresh usefulness marks.
func (a *Atlas) ResetUseful() {
	for _, e := range a.Entries {
		e.useful.Store(false)
	}
}

// Size returns the number of traceroutes currently in the atlas.
func (a *Atlas) Size() int { return len(a.Entries) }
