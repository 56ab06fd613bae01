package core

import (
	"sync"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/ttlcache"
)

// deadVPTTLUS is how long a blacked-out vantage point stays in the
// engine-level dead-VP cache: 5 virtual minutes, long enough to cover a
// burst of measurements hitting the same ingress order, short enough
// that a recovered VP rejoins the rotation promptly.
const deadVPTTLUS int64 = 300_000_000

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
// correctness.
//
// Expiry is ttlcache's boundary (served at now-t == TTL, dropped past
// it); the side equality falls on cannot matter, since across days the
// clock jumps 25 h against a 5 min TTL. The cache is uncapped (at most one
// entry per vantage point) and never swept; an expired mark is dropped by
// its next lookup.
type deadVPCache struct {
	mu sync.Mutex
	c  *ttlcache.Cache[ipv4.Addr, struct{}]
}

func newDeadVPCache() *deadVPCache {
	return &deadVPCache{c: ttlcache.New[ipv4.Addr, struct{}](deadVPTTLUS, 0, nil)}
}

// isDead reports whether the VP at a was marked dead within the TTL as
// of virtual time nowUS, dropping the entry once expired.
func (c *deadVPCache) isDead(a ipv4.Addr, nowUS int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok, _ := c.c.Get(a, nowUS)
	return ok
}

// markDead remembers the VP at a as dead for the TTL from nowUS.
func (c *deadVPCache) markDead(a ipv4.Addr, nowUS int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Put(a, struct{}{}, nowUS)
}
