package core

import (
	"sync"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/ttlcache"
)

// DefaultDeadVPTTLUS is how long a blacked-out vantage point stays in
// the engine-level dead-VP cache: 5 virtual minutes, long enough to
// cover a burst of measurements hitting the same ingress order, short
// enough that a recovered VP rejoins the rotation promptly.
const DefaultDeadVPTTLUS int64 = 300_000_000

// deadVPCache remembers vantage points recently observed blacked out,
// shared across measurements, so a dead VP is discovered once and then
// skipped instead of being re-probed (and timed out on) by every
// subsequent measurement. It is clocked on the pool's virtual time —
// never the wall clock — so engine runs stay deterministic: within one
// run the virtual clock does not advance between the mark and the
// lookups, and the bit-identity suites issue measurements serially, so
// the cache contents at each lookup are a pure function of the
// measurement history. Under concurrent issuance the cache is advisory
// (a racing measurement may or may not see a freshly-marked VP), which
// affects only how fast failover converges, never a measurement's
// correctness. A nil *deadVPCache is valid and always misses (the
// cache disabled, restoring strictly per-measurement dead-VP state).
//
// Expiry is ttlcache's boundary, the same as the other two engine
// stores: a mark made at t is still served at now-t == TTL and dropped
// once now-t > TTL. Which side equality falls on cannot matter here:
// within a day the virtual clock does not advance between mark and
// lookup, and across days it jumps 25 h against a 5 min TTL. The cache
// is uncapped (at most one entry per vantage point) and never swept; an
// expired mark is dropped by its next lookup.
type deadVPCache struct {
	mu sync.Mutex
	c  *ttlcache.Cache[ipv4.Addr, struct{}]
}

// newDeadVPCache builds a cache with the given TTL in virtual
// microseconds: 0 means DefaultDeadVPTTLUS, negative disables the
// cache entirely (returns nil).
func newDeadVPCache(ttlUS int64) *deadVPCache {
	if ttlUS < 0 {
		return nil
	}
	if ttlUS == 0 {
		ttlUS = DefaultDeadVPTTLUS
	}
	return &deadVPCache{c: ttlcache.New[ipv4.Addr, struct{}](ttlUS, 0, nil)}
}

// isDead reports whether the VP at a was marked dead within the TTL as
// of virtual time nowUS, dropping the entry once expired.
func (c *deadVPCache) isDead(a ipv4.Addr, nowUS int64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok, _ := c.c.Get(a, nowUS)
	return ok
}

// markDead remembers the VP at a as dead for the TTL from nowUS.
func (c *deadVPCache) markDead(a ipv4.Addr, nowUS int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Put(a, struct{}{}, nowUS)
}
