package segments

import (
	"fmt"
	"testing"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/ttlcache"
)

func addr(t testing.TB, s string) ipv4.Addr {
	t.Helper()
	a, err := ipv4.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// stored reads one segment without walking its chain, at virtual time 0
// so nothing the tests publish has expired.
func stored(s *Store, src, anchor ipv4.Addr) (entry, bool) {
	e, ok, _ := s.c.Get(Key{Src: src, Anchor: anchor}, 0)
	return e, ok
}

// chainSegs turns an address walk d -> h1 -> ... -> src into single-hop
// segments: each anchor adopts exactly the next address.
func chainSegs(addrs ...ipv4.Addr) []PathSeg {
	segs := make([]PathSeg, 0, len(addrs)-1)
	for i := 0; i+1 < len(addrs); i++ {
		segs = append(segs, PathSeg{Anchor: addrs[i], Hops: []Hop{{Addr: addrs[i+1], Tech: uint8(i + 1)}}})
	}
	return segs
}

func TestLookupWalksPublishedChain(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	h1 := addr(t, "16.1.0.1")
	h2 := addr(t, "16.2.0.1")
	s.Publish(src, chainSegs(d, h1, h2, src), 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 segments", s.Len())
	}

	// Full chain from the destination.
	chain, ok := s.Lookup(src, d, 10)
	if !ok || len(chain) != 3 {
		t.Fatalf("Lookup(d) = %v, %v", chain, ok)
	}
	if chain[0].Addr != h1 || chain[1].Addr != h2 || chain[2].Addr != src {
		t.Fatalf("chain = %v", chain)
	}
	// Techniques ride along (publisher's values).
	if chain[0].Tech != 1 || chain[2].Tech != 3 {
		t.Fatalf("techs = %v", chain)
	}

	// Mid-chain entry at a later anchor: shared-suffix reuse.
	chain, ok = s.Lookup(src, h2, 10)
	if !ok || len(chain) != 1 || chain[0].Addr != src {
		t.Fatalf("Lookup(h2) = %v, %v", chain, ok)
	}
}

func TestGroupHopsRideInsideSegments(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	p := addr(t, "10.0.0.1") // private hop revealed mid-group
	h := addr(t, "16.1.0.1")
	s.Publish(src, []PathSeg{
		{Anchor: d, Hops: []Hop{{Addr: p}, {Addr: h}}},
		{Anchor: h, Hops: []Hop{{Addr: src}}},
	}, 0)

	chain, ok := s.Lookup(src, d, 0)
	if !ok || len(chain) != 3 || chain[0].Addr != p || chain[1].Addr != h || chain[2].Addr != src {
		t.Fatalf("Lookup(d) = %v, %v", chain, ok)
	}
	// Non-anchor group hops are never entry points: a measurement landing
	// on p would have probed it itself, revealing its own addresses.
	if _, ok := s.Lookup(src, p, 0); ok {
		t.Fatal("lookup entered at a non-anchor group hop")
	}
}

func TestLookupMissesOnBrokenChain(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	h1 := addr(t, "16.1.0.1")
	// Publish a path that never reaches src: lookups must miss
	// (full-chain-or-nothing).
	s.Publish(src, chainSegs(d, h1), 0)
	if _, ok := s.Lookup(src, d, 0); ok {
		t.Fatal("chain not terminating at the source served")
	}
	// Unknown hop and hop == src miss trivially.
	if _, ok := s.Lookup(src, addr(t, "16.8.8.8"), 0); ok {
		t.Fatal("unknown hop hit")
	}
	if _, ok := s.Lookup(src, src, 0); ok {
		t.Fatal("lookup from the source itself hit")
	}
}

func TestTerminatorLinksIntoExistingChain(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	b := addr(t, "16.2.0.1")
	d := addr(t, "16.9.0.1")
	x := addr(t, "16.1.0.1")
	// An earlier measurement stored the suffix from b.
	s.Publish(src, chainSegs(b, src), 0)
	// A later one measured d -> x -> b fresh, then spliced the stored
	// suffix at b: it publishes its prefix plus a linkage-only terminator.
	s.Publish(src, []PathSeg{
		{Anchor: d, Hops: []Hop{{Addr: x}, {Addr: b}}},
		{Anchor: b},
	}, 5)

	chain, ok := s.Lookup(src, d, 5)
	if !ok || len(chain) != 3 || chain[0].Addr != x || chain[1].Addr != b || chain[2].Addr != src {
		t.Fatalf("Lookup(d) = %v, %v", chain, ok)
	}
	// The terminator stored nothing at b — in particular it did not
	// refresh b's TTL or overwrite its segment.
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := s.Lookup(src, b, DefaultTTLUS+1); ok {
		t.Fatal("terminator refreshed the spliced segment: it outlived the TTL of its own publish")
	}
}

func TestLookupExpiresAndCounts(t *testing.T) {
	reg := obs.New()
	s := New(Options{TTLUS: 1_000})
	s.SetObs(reg)
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	s.Publish(src, chainSegs(d, src), 0)

	if _, ok := s.Lookup(src, d, 1_000); !ok {
		t.Fatal("fresh entry missed at exactly the TTL boundary")
	}
	if _, ok := s.Lookup(src, d, 1_001); ok {
		t.Fatal("expired entry served")
	}
	if s.Len() != 0 {
		t.Fatalf("expired entry not dropped: Len = %d", s.Len())
	}
	if got := reg.Counter("engine_segment_stale_evictions_total").Value(); got != 1 {
		t.Fatalf("stale evictions = %d, want 1", got)
	}
}

func TestLookupMixedAgeChainMisses(t *testing.T) {
	s := New(Options{TTLUS: 1_000})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	h1 := addr(t, "16.1.0.1")
	// Segment d -> h1 at t=0 (terminator carries the linkage), h1 -> src
	// at t=2000.
	s.Publish(src, []PathSeg{{Anchor: d, Hops: []Hop{{Addr: h1}}}, {Anchor: h1}}, 0)
	s.Publish(src, chainSegs(h1, src), 2_000)
	// At t=2500 the d segment is stale: the whole lookup must miss even
	// though the tail is fresh.
	if _, ok := s.Lookup(src, d, 2_500); ok {
		t.Fatal("chain with a stale segment served")
	}
	// The fresh tail alone still resolves.
	if _, ok := s.Lookup(src, h1, 2_500); !ok {
		t.Fatal("fresh tail missed")
	}
}

func TestLookupCycleGuard(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	a := addr(t, "16.1.0.1")
	b := addr(t, "16.2.0.1")
	// Two churn epochs published contradicting continuations: a -> b and
	// b -> a, neither reaching src.
	s.Publish(src, []PathSeg{{Anchor: a, Hops: []Hop{{Addr: b}}}, {Anchor: b}}, 0)
	s.Publish(src, []PathSeg{{Anchor: b, Hops: []Hop{{Addr: a}}}, {Anchor: a}}, 0)
	if _, ok := s.Lookup(src, a, 0); ok {
		t.Fatal("cyclic chain served")
	}
	if _, ok := s.Lookup(src, b, 0); ok {
		t.Fatal("cyclic chain served")
	}
}

func TestLookupChainLengthBound(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	addrs := make([]ipv4.Addr, 0, MaxChain+3)
	for i := 0; i < MaxChain+2; i++ {
		addrs = append(addrs, addr(t, fmt.Sprintf("16.2.%d.%d", i/250, i%250+1)))
	}
	addrs = append(addrs, src)
	s.Publish(src, chainSegs(addrs...), 0)
	if _, ok := s.Lookup(src, addrs[0], 0); ok {
		t.Fatal("over-long chain served")
	}
	// Entering within the bound still resolves.
	if _, ok := s.Lookup(src, addrs[3], 0); !ok {
		t.Fatal("in-bound suffix missed")
	}
}

func TestPublishGuards(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	h := addr(t, "16.1.0.1")

	s.Publish(src, nil, 0)
	s.Publish(src, []PathSeg{{Anchor: addr(t, "16.9.0.1")}}, 0) // terminator alone
	if s.Len() != 0 {
		t.Fatalf("degenerate publishes stored %d segments", s.Len())
	}

	// Zero, private, and source anchors are never keyed; the valid
	// segment among them survives.
	s.Publish(src, []PathSeg{
		{Anchor: 0, Hops: []Hop{{Addr: h}}},
		{Anchor: addr(t, "10.0.0.1"), Hops: []Hop{{Addr: h}}},
		{Anchor: src, Hops: []Hop{{Addr: h}}},
		{Anchor: h, Hops: []Hop{{Addr: src}}},
	}, 0)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want only the valid segment", s.Len())
	}
	if _, ok := s.Lookup(src, h, 0); !ok {
		t.Fatal("valid segment lost among degenerate ones")
	}
}

func TestPublishMergesConsecutiveAnchors(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	a := addr(t, "16.1.0.1")
	b := addr(t, "16.2.0.1")
	x := addr(t, "16.3.0.1")
	y := addr(t, "16.4.0.1")
	// The engine can adopt twice from one cursor (RR group, then a TS
	// fall-through); both groups belong to the same anchor.
	s.Publish(src, []PathSeg{
		{Anchor: a, Hops: []Hop{{Addr: x}}},
		{Anchor: a, Hops: []Hop{{Addr: y}}},
		{Anchor: b, Hops: []Hop{{Addr: src}}},
	}, 0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (consecutive a-segments merged)", s.Len())
	}
	chain, ok := s.Lookup(src, a, 0)
	if !ok || len(chain) != 3 || chain[0].Addr != x || chain[1].Addr != y || chain[2].Addr != src {
		t.Fatalf("Lookup(a) = %v, %v", chain, ok)
	}
}

func TestPublishStopsAtRepeatedAnchor(t *testing.T) {
	s := New(Options{})
	src := addr(t, "16.0.0.1")
	a := addr(t, "16.1.0.1")
	b := addr(t, "16.2.0.1")
	c := addr(t, "16.3.0.1")
	x := addr(t, "16.4.0.1")
	// A path that loops back through anchor a: publication stops there —
	// overwriting a's first segment would corrupt the chain.
	s.Publish(src, []PathSeg{
		{Anchor: a, Hops: []Hop{{Addr: x}}},
		{Anchor: b, Hops: []Hop{{Addr: a}}},
		{Anchor: a, Hops: []Hop{{Addr: c}}},
		{Anchor: c, Hops: []Hop{{Addr: src}}},
	}, 0)
	if _, ok := stored(s, src, c); ok {
		t.Fatal("segments past the repeated anchor stored")
	}
	if e, _ := stored(s, src, a); len(e.hops) != 1 || e.hops[0].Addr != x {
		t.Fatalf("first segment at the repeated anchor overwritten: %v", e.hops)
	}
	// The loop cannot be walked to the source.
	if _, ok := s.Lookup(src, a, 0); ok {
		t.Fatal("looping chain served")
	}
}

func TestRepublishRefreshes(t *testing.T) {
	s := New(Options{TTLUS: 1_000})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	s.Publish(src, chainSegs(d, src), 0)
	s.Publish(src, chainSegs(d, src), 900) // re-measured: TTL restarts
	if _, ok := s.Lookup(src, d, 1_800); !ok {
		t.Fatal("republished entry expired on the original timestamp")
	}
}

func TestEvictionTieBreakByKey(t *testing.T) {
	s := New(Options{TTLUS: 1 << 60, MaxEntries: 2})
	src := addr(t, "16.0.0.1")
	a := addr(t, "16.1.0.1")
	b := addr(t, "16.2.0.1")
	c := addr(t, "16.3.0.1")
	// Three segments, identical timestamps: the smallest key must go.
	s.Publish(src, chainSegs(c, b, a, src), 5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if _, ok := stored(s, src, a); ok {
		t.Fatal("tie-break kept the smallest key; want it evicted deterministically")
	}
	if _, ok := stored(s, src, b); !ok {
		t.Fatal("key b evicted")
	}
	if _, ok := stored(s, src, c); !ok {
		t.Fatal("key c evicted")
	}
}

func TestSweepDropsExpiredOnWriteInterval(t *testing.T) {
	reg := obs.New()
	s := New(Options{TTLUS: 1_000, MaxEntries: 1 << 20})
	s.SetObs(reg)
	src := addr(t, "16.0.0.1")
	for i := 0; i < ttlcache.SweepEvery-1; i++ {
		d := addr(t, fmt.Sprintf("16.4.%d.%d", i/250, i%250+1))
		s.Publish(src, chainSegs(d, src), 0)
	}
	// The write completing the sweep interval lands past the TTL: the
	// sweep reclaims everything expired.
	s.Publish(src, chainSegs(addr(t, "16.9.9.9"), src), 10_000)
	if got := s.Len(); got != 1 {
		t.Fatalf("sweep left %d segments, want 1 (the fresh one)", got)
	}
	if got := reg.Counter("engine_segment_stale_evictions_total").Value(); got != ttlcache.SweepEvery-1 {
		t.Fatalf("stale evictions = %d, want %d", got, ttlcache.SweepEvery-1)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := New(Options{TTLUS: 123, MaxEntries: 7})
	src := addr(t, "16.0.0.1")
	d := addr(t, "16.9.0.1")
	s.Publish(src, chainSegs(d, src), 0)
	cp := s.Clone()
	if cp.TTLUS() != 123 || cp.maxEntries != 7 || cp.Len() != 1 {
		t.Fatalf("clone config/content lost: ttl=%d max=%d len=%d", cp.TTLUS(), cp.maxEntries, cp.Len())
	}
	s.Flush()
	if s.Len() != 0 || cp.Len() != 1 {
		t.Fatalf("clone shares storage with original: orig=%d clone=%d", s.Len(), cp.Len())
	}
	if _, ok := cp.Lookup(src, d, 0); !ok {
		t.Fatal("clone lost the chain")
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	src := ipv4.Addr(1)
	s.Publish(src, chainSegs(ipv4.Addr(9), src), 0)
	if _, ok := s.Lookup(src, ipv4.Addr(9), 0); ok {
		t.Fatal("nil store hit")
	}
	if s.Len() != 0 || s.TTLUS() != 0 {
		t.Fatal("nil store reported content")
	}
	s.Flush()
	s.SetObs(obs.New())
	if s.Clone() != nil {
		t.Fatal("nil store cloned to non-nil")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := New(Options{})
	if s.ttlUS != DefaultTTLUS || s.maxEntries != DefaultMaxEntries {
		t.Fatalf("defaults not applied: ttl=%d max=%d", s.ttlUS, s.maxEntries)
	}
	s = New(Options{TTLUS: -5, MaxEntries: -5})
	if s.ttlUS != DefaultTTLUS || s.maxEntries != DefaultMaxEntries {
		t.Fatalf("negative options not defaulted: ttl=%d max=%d", s.ttlUS, s.maxEntries)
	}
}
