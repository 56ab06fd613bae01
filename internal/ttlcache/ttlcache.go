// Package ttlcache is the one virtual-time TTL cache under the engine's
// shared stores (core's knowledge table and the segment store). It holds
// the mechanism those stores have in common and none of their policy:
//
//   - Time is the caller's virtual clock in microseconds, passed into
//     every call — never the wall clock — so runs are reproducible.
//   - An entry written at t is fresh while now-t <= ttl and expired once
//     now-t > ttl. A lookup that finds an expired entry deletes it.
//   - Every SweepEvery writes, or as soon as the size cap is exceeded,
//     MaybeSweep drops everything expired and then evicts oldest-first
//     down to exactly the cap. Equal ages break by the key order the
//     owner supplies, so the evicted set is the same on every run
//     whatever order Go iterates the map in.
//   - Evictions are returned as counts. Each owner feeds its own metric
//     and decides what a hit means; there is no callback and no option.
//
// A Cache is not locked. Every owner already holds a mutex around a
// larger critical section (a chain walk, a lookup plus its hit/miss
// counters), so a second lock here would only add cost.
package ttlcache

import "maps"

// SweepEvery is the opportunistic sweep interval, in writes.
const SweepEvery = 1024

type entry[V any] struct {
	v    V
	atUS int64
}

// Cache maps K to V with a virtual-time TTL and an optional size cap.
type Cache[K comparable, V any] struct {
	ttlUS      int64
	maxEntries int
	less       func(a, b K) bool
	m          map[K]entry[V]
	writes     int // since the last sweep
}

// New builds a cache whose entries live ttlUS virtual microseconds. The
// TTL is used as given: 0 serves an entry only at the instant it was
// written, and a negative one never serves. maxEntries <= 0 means no
// cap. less is the strict total order on keys that breaks age ties when
// the cap evicts; it may be nil only for an uncapped cache.
func New[K comparable, V any](ttlUS int64, maxEntries int, less func(a, b K) bool) *Cache[K, V] {
	return &Cache[K, V]{ttlUS: ttlUS, maxEntries: maxEntries, less: less, m: make(map[K]entry[V])}
}

// Get returns the value stored under k if it is fresh as of nowUS. An
// expired entry is deleted and reported as a miss with expired == 1.
func (c *Cache[K, V]) Get(k K, nowUS int64) (v V, ok bool, expired int) {
	e, ok := c.m[k]
	if !ok {
		return v, false, 0
	}
	if nowUS-e.atUS > c.ttlUS {
		delete(c.m, k)
		return v, false, 1
	}
	return e.v, true, 0
}

// Put stores v under k as written at nowUS, replacing (and so
// refreshing) any previous entry. It counts one write and never evicts:
// the owner calls MaybeSweep once its own unit of work is stored.
func (c *Cache[K, V]) Put(k K, v V, nowUS int64) {
	c.m[k] = entry[V]{v: v, atUS: nowUS}
	c.writes++
}

// MaybeSweep does nothing until SweepEvery writes have accumulated or
// the cap is exceeded. Then it drops every entry expired as of nowUS
// and, if the cache is still over its cap, evicts the oldest entries
// until it fits. It returns how many entries each step removed.
func (c *Cache[K, V]) MaybeSweep(nowUS int64) (expired, capped int) {
	if c.writes < SweepEvery && !c.overCap() {
		return 0, 0
	}
	c.writes = 0
	for k, e := range c.m {
		if nowUS-e.atUS > c.ttlUS {
			delete(c.m, k)
			expired++
		}
	}
	for c.overCap() {
		c.evictOldest()
		capped++
	}
	return expired, capped
}

func (c *Cache[K, V]) overCap() bool { return c.maxEntries > 0 && len(c.m) > c.maxEntries }

// evictOldest removes the single oldest entry. It is the slow path,
// reached only when unexpired entries alone exceed the cap.
func (c *Cache[K, V]) evictOldest() {
	var (
		found    bool
		oldestK  K
		oldestUS int64
	)
	//revtr:unordered min-selection with total-order tie-break (age, then the owner's key order); any iteration order picks the same entry
	for k, e := range c.m {
		if !found || e.atUS < oldestUS || (e.atUS == oldestUS && c.less(k, oldestK)) {
			found, oldestK, oldestUS = true, k, e.atUS
		}
	}
	delete(c.m, oldestK)
}

// Len is the number of stored entries, expired ones not yet dropped
// included.
func (c *Cache[K, V]) Len() int { return len(c.m) }

// Flush drops everything and restarts the sweep interval.
func (c *Cache[K, V]) Flush() {
	c.m = make(map[K]entry[V])
	c.writes = 0
}

// Clone returns an independent copy with the same configuration,
// contents and sweep position. Values are copied shallowly.
func (c *Cache[K, V]) Clone() *Cache[K, V] {
	cp := *c
	cp.m = maps.Clone(c.m)
	return &cp
}
