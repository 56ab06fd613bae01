package core

import (
	"slices"
	"sync"

	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/ttlcache"
)

// cache reuses RR revelations and forward traceroutes across reverse
// traceroutes within a TTL window (Insight 1.4: most paths are stable, so
// measurements can be cached for a day). RR and traceroute keys include
// the source because reverse hops depend on the destination of the reply.
// An RR entry may be empty: the stage was measured in full and revealed
// nothing, which is a measurement too (Machine.stepAfterRR).
//
// The exception is the half of an RR reply settled before the reply is
// addressed to anybody — which vantage points' forward paths fill the nine
// slots before a hop, whether the hop answers option packets at all —
// kept once per hop (kindVerdict, no source in the key) for every source.
//
// A source's traceroutes form a tree (Donnet et al.'s Doubletree), so
// where they met an AS says where the next one toward it gets there: per
// source and AS (mets), the lowest TTL at which one of them toward a hop
// of that AS met a responsive hop of it (the symmetry stage starts there).
// Likewise a site's spoofed Record Route probes: per site and AS (reaches),
// the fewest RR slots a reply from a hop of that AS needed to stamp it, 10
// when one showed the site out of range (Machine.learnReach); the hop's
// forward path does not depend on the source the probe claimed, so every
// source reads it (Machine.byReach, Machine.couldRevealMore).
//
// Expiry, the periodic sweep and the size cap are ttlcache's (DESIGN.md
// "Virtual-time TTL cache contract"); every kind of entry keyed by a hop
// lives in one Cache so cacheMaxEntries bounds them together. Each memo
// has a Cache of its own under the same TTL and cap, so that an entry of
// it costs a key and a byte, not a cacheEntry. What this type adds is the
// lock that lets one engine serve concurrent measurements
// and the hit/miss/eviction counts that flow into the engine's Metrics.
type cache struct {
	mu      sync.Mutex
	c       *ttlcache.Cache[cacheKey, cacheEntry]
	mets    *ttlcache.Cache[memoKey, uint8]
	reaches *ttlcache.Cache[memoKey, uint8]
	metrics *Metrics // never nil: a zero Metrics until Engine.SetMetrics
}

// cacheMaxEntries bounds an engine's cache, every kind of entry combined;
// oldest entries are evicted past it.
const cacheMaxEntries = 1 << 16

// cacheKind is as wide as an address so cacheKey has no padding and the
// map hashes and compares it as plain memory.
type cacheKind uint32

const (
	kindRR cacheKind = iota
	kindTR
	kindVerdict // src is zero; lookups count as neither RR nor traceroute ones
)

type cacheKey struct {
	kind   cacheKind
	target ipv4.Addr
	src    ipv4.Addr
}

// cacheKeyLess is the eviction tie-break among entries of equal age:
// rr before tr before verdicts, then by target, then by source.
func cacheKeyLess(a, b cacheKey) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.target != b.target {
		return a.target < b.target
	}
	return a.src < b.src
}

// cacheEntry holds an RR revelation (revHops, tech; no hops when the
// stage revealed none), a traceroute (tr) or a hop's verdicts, by kind.
// The traceroute sits behind a pointer so the far more numerous RR
// entries do not pay for its size.
//
// A hop's verdicts: the vantage points seen out of RR range of it (never
// written in place: readers hold the slice without the lock), whether it
// left a direct probe and a whole batch unanswered, and when the first of
// them was written — the entry ages from then, not from the latest.
type cacheEntry struct {
	revHops []ipv4.Addr
	tech    Technique
	silent  bool
	farVPs  []ipv4.Addr
	sinceUS int64
	tr      *measure.TracerouteResult
}

func newCache(ttlUS int64, maxEntries int) *cache {
	if maxEntries <= 0 {
		maxEntries = cacheMaxEntries
	}
	return &cache{
		c:       ttlcache.New[cacheKey, cacheEntry](ttlUS, maxEntries, cacheKeyLess),
		mets:    ttlcache.New[memoKey, uint8](ttlUS, maxEntries, memoKeyLess),
		reaches: ttlcache.New[memoKey, uint8](ttlUS, maxEntries, memoKeyLess),
		metrics: new(Metrics),
	}
}

// size is the total entry count across the three kinds and the memos.
func (c *cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c.Len() + c.mets.Len() + c.reaches.Len()
}

// memoKey keys a memo: the source or site the probes went from, and the AS
// they went to.
type memoKey struct {
	from ipv4.Addr
	asn  topology.ASN
}

// memoKeyLess is the memos' eviction tie-break: by source or site, then by
// AS.
func memoKeyLess(a, b memoKey) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	return a.asn < b.asn
}

// get looks one entry up, counting the hit or miss and the expired
// entry the lookup may have dropped.
func (c *cache) get(k cacheKey, nowUS int64) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok, expired := c.c.Get(k, nowUS)
	c.metrics.lookup(k.kind, ok, expired)
	return e, ok
}

func (c *cache) getRR(target, src ipv4.Addr, nowUS int64) ([]ipv4.Addr, Technique, bool) {
	e, ok := c.get(cacheKey{kindRR, target, src}, nowUS)
	return e.revHops, e.tech, ok
}

func (c *cache) putRR(target, src ipv4.Addr, hops []ipv4.Addr, tech Technique, nowUS int64) {
	c.put(cacheKey{kindRR, target, src}, cacheEntry{revHops: hops, tech: tech}, nowUS)
}

func (c *cache) getTraceroute(target, src ipv4.Addr, nowUS int64) (measure.TracerouteResult, bool) {
	e, ok := c.get(cacheKey{kindTR, target, src}, nowUS)
	if !ok {
		return measure.TracerouteResult{}, false
	}
	return *e.tr, true
}

func (c *cache) putTraceroute(target, src ipv4.Addr, tr measure.TracerouteResult, nowUS int64) {
	c.put(cacheKey{kindTR, target, src}, cacheEntry{tr: &tr}, nowUS)
}

// met returns the lowest TTL at which src's traceroutes met a responsive
// hop of asn.
func (c *cache) met(src ipv4.Addr, asn topology.ASN, nowUS int64) (int, bool) {
	return c.least(c.mets, memoKey{src, asn}, nowUS)
}

// putMet lowers src's entry of asn to the lowest TTL at which tr met a
// responsive hop of asn.
func (c *cache) putMet(src ipv4.Addr, asn topology.ASN, tr *measure.TracerouteResult, m ip2as.Mapper, nowUS int64) {
	ttl := slices.IndexFunc(tr.Hops, func(h measure.TracerouteHop) bool {
		a, ok := m.ASOf(h.Addr)
		return h.Responded && ok && a == asn
	}) + 1
	if ttl > 0 {
		c.lower(c.mets, memoKey{src, asn}, ttl, nowUS)
	}
}

// reach returns the fewest RR slots site's spoofed probes needed to reach
// a hop of asn.
func (c *cache) reach(site ipv4.Addr, asn topology.ASN, nowUS int64) (int, bool) {
	return c.least(c.reaches, memoKey{site, asn}, nowUS)
}

// putReach lowers site's entry of asn to slots.
func (c *cache) putReach(site ipv4.Addr, asn topology.ASN, slots int, nowUS int64) {
	c.lower(c.reaches, memoKey{site, asn}, slots, nowUS)
}

// least returns memo's entry of k.
func (c *cache) least(memo *ttlcache.Cache[memoKey, uint8], k memoKey, nowUS int64) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok, expired := memo.Get(k, nowUS)
	c.metrics.evicted(expired)
	return int(v), ok
}

// lower lowers memo's entry of k to v; an entry lowered ages from then.
func (c *cache) lower(memo *ttlcache.Cache[memoKey, uint8], k memoKey, v int, nowUS int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	was, ok, expired := memo.Get(k, nowUS)
	if !ok || int(was) > v {
		memo.Put(k, uint8(v), nowUS)
	}
	swept, capped := memo.MaybeSweep(nowUS)
	c.metrics.evicted(expired + swept + capped)
}

// verdicts returns what is known of target whichever source asks.
func (c *cache) verdicts(target ipv4.Addr, nowUS int64) cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _, expired := c.c.Get(cacheKey{kind: kindVerdict, target: target}, nowUS)
	c.metrics.evicted(expired)
	return e
}

// addVerdicts adds to target's verdicts: the vantage points far are out
// of range of it and, if silent, it answers no option packet.
func (c *cache) addVerdicts(target ipv4.Addr, far []ipv4.Addr, silent bool, nowUS int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{kind: kindVerdict, target: target}
	e, ok, expired := c.c.Get(k, nowUS)
	if !ok {
		e.sinceUS = nowUS
	}
	e.silent = e.silent || silent
	e.farVPs = slices.Clip(e.farVPs) // so that appending copies
	for _, vp := range far {
		if !slices.Contains(e.farVPs, vp) {
			e.farVPs = append(e.farVPs, vp)
		}
	}
	c.c.Put(k, e, e.sinceUS)
	swept, capped := c.c.MaybeSweep(nowUS)
	c.metrics.evicted(expired + swept + capped)
}

// put stores one entry and lets the sweep run; every eviction, expired
// or over the cap, counts into engine_cache_evictions_total.
func (c *cache) put(k cacheKey, e cacheEntry, nowUS int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Put(k, e, nowUS)
	expired, capped := c.c.MaybeSweep(nowUS)
	c.metrics.evicted(expired + capped)
}
