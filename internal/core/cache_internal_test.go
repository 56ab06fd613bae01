package core

import (
	"fmt"
	"slices"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
)

func addr(t *testing.T, s string) ipv4.Addr {
	t.Helper()
	a, err := ipv4.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCacheEvictsExpiredOnGet: a lookup that finds a TTL-expired entry
// must delete it (the seed only reported a miss and kept the entry
// forever).
func TestCacheEvictsExpiredOnGet(t *testing.T) {
	reg := obs.New()
	c := newCache(1_000, 0)
	c.metrics = NewMetrics(reg)
	src := addr(t, "10.0.0.1")
	tgt := addr(t, "10.0.0.2")

	c.putRR(tgt, src, []ipv4.Addr{src}, TechRR, 0)
	c.putTraceroute(tgt, src, measure.TracerouteResult{ReachedDst: true}, 0)
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}

	// Past the TTL: both lookups miss AND remove the entries.
	if _, _, ok := c.getRR(tgt, src, 5_000); ok {
		t.Fatal("expired RR entry served")
	}
	if _, ok := c.getTraceroute(tgt, src, 5_000); ok {
		t.Fatal("expired traceroute entry served")
	}
	if c.size() != 0 {
		t.Fatalf("expired entries not deleted: size = %d", c.size())
	}
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 2 {
		t.Fatalf("evictions counter = %d, want 2", got)
	}
}

// TestCacheEvictionsCounted: every entry the sweep removes — expired or
// pushed out by the cap — lands in engine_cache_evictions_total.
func TestCacheEvictionsCounted(t *testing.T) {
	reg := obs.New()
	c := newCache(1_000, 2)
	c.metrics = NewMetrics(reg)
	src := addr(t, "10.0.0.1")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")

	c.putRR(a, src, nil, TechRR, 0)
	c.putRR(b, src, nil, TechRR, 5_000)
	c.putTraceroute(b, src, measure.TracerouteResult{}, 5_001)
	// The third write went over the cap: a had expired, which was enough.
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 1 || c.size() != 2 {
		t.Fatalf("after the expiring sweep: evictions = %d, size = %d, want 1, 2", got, c.size())
	}
	c.putRR(d, src, nil, TechRR, 5_002)
	// Nothing has expired now: the cap evicts the oldest.
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 2 || c.size() != 2 {
		t.Fatalf("after the cap eviction: evictions = %d, size = %d, want 2, 2", got, c.size())
	}
}

// TestCacheEvictOldestDeterministic pins the order the combined cap
// evicts in: strictly oldest first across both kinds, age ties broken
// rr before tr, and within a kind by smallest key — so eviction is
// identical on every run despite Go's randomized map iteration. The cap
// of 4 holds the four entries below; each further write pushes exactly
// one of them out.
func TestCacheEvictOldestDeterministic(t *testing.T) {
	c := newCache(1<<60, 4) // nothing expires
	src := addr(t, "10.0.0.1")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")

	c.putRR(b, src, nil, TechRR, 1)
	c.putRR(a, src, nil, TechRR, 1)
	c.putTraceroute(a, src, measure.TracerouteResult{}, 1)
	c.putTraceroute(d, src, measure.TracerouteResult{}, 0) // strictly oldest

	const late = 100
	hasRR := func(k ipv4.Addr) bool { _, _, ok := c.getRR(k, src, late); return ok }
	hasTR := func(k ipv4.Addr) bool { _, ok := c.getTraceroute(k, src, late); return ok }
	// push writes one fresh entry, which never is the oldest itself.
	push := func(i int) {
		c.putRR(addr(t, fmt.Sprintf("10.5.0.%d", i)), src, nil, TechRR, late)
		if c.size() != 4 {
			t.Fatalf("size = %d after push %d, want the cap of 4", c.size(), i)
		}
	}

	// 1: the strictly oldest entry goes first even though it is a tr.
	push(1)
	if hasTR(d) {
		t.Fatal("strictly oldest tr entry survived the first eviction")
	}
	// 2: among the three age-1 entries, rr wins the tie over tr, and the
	// smallest rr key goes first.
	push(2)
	if hasRR(a) || !hasRR(b) || !hasTR(a) {
		t.Fatalf("second eviction: want rr[a] evicted, have rr[a]=%v rr[b]=%v tr[a]=%v",
			hasRR(a), hasRR(b), hasTR(a))
	}
	// 3: the remaining rr entry still precedes the tied tr entry.
	push(3)
	if hasRR(b) || !hasTR(a) {
		t.Fatalf("third eviction: want rr[b] evicted before tr[a], have rr[b]=%v tr[a]=%v",
			hasRR(b), hasTR(a))
	}
	// 4: the tr entry last.
	push(4)
	if hasTR(a) {
		t.Fatal("tr[a] survived the fourth eviction")
	}
}

// TestEngineCacheBounded drives the cap under the engine's TTL.
func TestEngineCacheBounded(t *testing.T) {
	c := newCache(CacheTTLUS, 8)
	src := addr(t, "10.0.0.1")
	for i := 0; i < 100; i++ {
		c.putTraceroute(addr(t, fmt.Sprintf("10.3.0.%d", i+1)), src,
			measure.TracerouteResult{}, int64(i))
	}
	if c.size() > 8 {
		t.Fatalf("size %d > configured cap 8", c.size())
	}
}

// TestCacheVerdicts: a hop's verdicts are one entry, keyed without a
// source, that accumulates; it expires CacheTTLUS after its first verdict
// however recent the last; its slice is never modified in place; and its
// lookups count as neither RR nor traceroute lookups.
func TestCacheVerdicts(t *testing.T) {
	reg := obs.New()
	const ttl = 1_000
	c := newCache(ttl, 0)
	c.metrics = NewMetrics(reg)
	hop := addr(t, "10.0.0.2")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")

	if v := c.verdicts(hop, 0); v.farVPs != nil || v.silent {
		t.Fatalf("verdicts on an unknown hop: %+v", v)
	}
	c.addVerdicts(hop, []ipv4.Addr{a, b}, false, 0)
	held := c.verdicts(hop, 0).farVPs
	c.addVerdicts(hop, []ipv4.Addr{b, d}, false, 600) // b is known already
	c.addVerdicts(hop, nil, true, 900)
	if v := c.verdicts(hop, ttl); !slices.Equal(v.farVPs, []ipv4.Addr{a, b, d}) || !v.silent {
		t.Fatalf("accumulated verdicts = %v silent=%v, want [a b d] and silent", v.farVPs, v.silent)
	}
	if held = held[:cap(held)]; !slices.Equal(held, []ipv4.Addr{a, b}) {
		t.Fatalf("a slice handed out earlier was written behind: %v", held)
	}
	if c.size() != 1 {
		t.Fatalf("size = %d, want one entry per hop", c.size())
	}
	// The first verdict was written at 0: everything goes at ttl+1, the
	// verdicts written at 600 and 900 included.
	if v := c.verdicts(hop, ttl+1); v.farVPs != nil || v.silent || c.size() != 0 {
		t.Fatalf("verdicts served past the TTL of the first: %+v (size %d)", v, c.size())
	}
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
	// A verdict written after the expiry starts a new entry with a new age.
	c.addVerdicts(hop, []ipv4.Addr{d}, false, ttl+1)
	if v := c.verdicts(hop, 2*ttl+1); len(v.farVPs) != 1 || v.farVPs[0] != d {
		t.Fatalf("verdicts after re-learning = %+v, want [d]", v)
	}
	for _, name := range []string{"engine_cache_rr_hits_total", "engine_cache_rr_misses_total",
		"engine_cache_tr_hits_total", "engine_cache_tr_misses_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after verdict lookups only, want 0", name, got)
		}
	}
}
