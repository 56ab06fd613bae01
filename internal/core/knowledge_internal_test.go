package core

import (
	"fmt"
	"slices"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
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

// observed is a table whose metrics record into a fresh registry.
func observed(ttlUS int64, maxEntries int) (*knowledge, *obs.Registry) {
	reg := obs.New()
	k := newKnowledge(ttlUS, maxEntries)
	k.metrics = NewMetrics(reg)
	return k, reg
}

// TestCacheEvictsExpiredOnGet: a lookup that finds a TTL-expired fact
// must delete it (the seed only reported a miss and kept the entry
// forever).
func TestCacheEvictsExpiredOnGet(t *testing.T) {
	k, reg := observed(1_000, 0)
	src := addr(t, "10.0.0.1")
	tgt := addr(t, "10.0.0.2")

	k.learn(fact{factRR, tgt, src}, known{addrs: []ipv4.Addr{src}, tech: TechRR}, 0)
	k.learn(fact{factTR, tgt, src}, known{tr: &measure.TracerouteResult{ReachedDst: true}}, 0)
	if k.size() != 2 {
		t.Fatalf("size = %d, want 2", k.size())
	}

	// Past the TTL: both lookups miss AND remove the entries.
	if _, ok := k.knows(fact{factRR, tgt, src}, 5_000); ok {
		t.Fatal("expired RR result served")
	}
	if _, ok := k.knows(fact{factTR, tgt, src}, 5_000); ok {
		t.Fatal("expired traceroute served")
	}
	if k.size() != 0 {
		t.Fatalf("expired facts not deleted: size = %d", k.size())
	}
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 2 {
		t.Fatalf("evictions counter = %d, want 2", got)
	}
}

// TestCacheEvictionsCounted: every fact the sweep removes — expired or
// pushed out by the cap — lands in engine_cache_evictions_total.
func TestCacheEvictionsCounted(t *testing.T) {
	k, reg := observed(1_000, 2)
	src := addr(t, "10.0.0.1")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")

	k.learn(fact{factRR, a, src}, known{}, 0)
	k.learn(fact{factRR, b, src}, known{}, 5_000)
	k.learn(fact{factTR, b, src}, known{}, 5_001)
	// The third write went over the cap: a had expired, which was enough.
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 1 || k.size() != 2 {
		t.Fatalf("after the expiring sweep: evictions = %d, size = %d, want 1, 2", got, k.size())
	}
	k.learn(fact{factRR, d, src}, known{}, 5_002)
	// Nothing has expired now: the cap evicts the oldest.
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 2 || k.size() != 2 {
		t.Fatalf("after the cap eviction: evictions = %d, size = %d, want 2, 2", got, k.size())
	}
}

// TestCacheEvictOldestDeterministic pins the order the cap evicts in:
// strictly oldest first across kinds, age ties broken by kind in
// declaration order (an RR result before a traceroute), and within a kind
// by smallest key — so eviction is identical on every run despite Go's
// randomized map iteration. The cap of 4 holds the four facts below; each
// further write pushes exactly one of them out.
func TestCacheEvictOldestDeterministic(t *testing.T) {
	k := newKnowledge(1<<60, 4) // nothing expires
	src := addr(t, "10.0.0.1")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")

	k.learn(fact{factRR, b, src}, known{}, 1)
	k.learn(fact{factRR, a, src}, known{}, 1)
	k.learn(fact{factTR, a, src}, known{}, 1)
	k.learn(fact{factTR, d, src}, known{}, 0) // strictly oldest

	const late = 100
	has := func(kind factKind, hop ipv4.Addr) bool { _, ok := k.knows(fact{kind, hop, src}, late); return ok }
	// push writes one fresh fact, which never is the oldest itself.
	push := func(i int) {
		k.learn(fact{factRR, addr(t, fmt.Sprintf("10.5.0.%d", i)), src}, known{}, late)
		if k.size() != 4 {
			t.Fatalf("size = %d after push %d, want the cap of 4", k.size(), i)
		}
	}

	// 1: the strictly oldest fact goes first even though it is a traceroute.
	push(1)
	if has(factTR, d) {
		t.Fatal("strictly oldest traceroute survived the first eviction")
	}
	// 2: among the three age-1 facts, RR wins the tie over the traceroute,
	// and the smallest RR key goes first.
	push(2)
	if has(factRR, a) || !has(factRR, b) || !has(factTR, a) {
		t.Fatalf("second eviction: want rr[a] evicted, have rr[a]=%v rr[b]=%v tr[a]=%v",
			has(factRR, a), has(factRR, b), has(factTR, a))
	}
	// 3: the remaining RR result still precedes the tied traceroute.
	push(3)
	if has(factRR, b) || !has(factTR, a) {
		t.Fatalf("third eviction: want rr[b] evicted before tr[a], have rr[b]=%v tr[a]=%v",
			has(factRR, b), has(factTR, a))
	}
	// 4: the traceroute last.
	push(4)
	if has(factTR, a) {
		t.Fatal("tr[a] survived the fourth eviction")
	}
}

// TestEngineCacheBounded drives the cap under the engine's TTL.
func TestEngineCacheBounded(t *testing.T) {
	k := newKnowledge(CacheTTLUS, 8)
	src := addr(t, "10.0.0.1")
	for i := 0; i < 100; i++ {
		k.learn(fact{factTR, addr(t, fmt.Sprintf("10.3.0.%d", i+1)), src},
			known{tr: &measure.TracerouteResult{}}, int64(i))
	}
	if k.size() > 8 {
		t.Fatalf("size %d > configured cap 8", k.size())
	}
}

// TestCacheDeadVPLifetime: a fact is served for its kind's lifetime within
// the table's. A dead mark is served deadVPTTLUS after it was written and
// not 1 µs later, though the table keeps an RR result for a day.
func TestCacheDeadVPLifetime(t *testing.T) {
	vp, src := addr(t, "10.4.0.1"), addr(t, "10.0.0.1")
	dead, rr := fact{kind: factDead, subject: vp}, fact{factRR, vp, src}
	for _, tc := range []struct {
		name  string
		f     fact
		atUS  int64
		serve bool
	}{
		{"dead mark at its lifetime", dead, deadVPTTLUS, true},
		{"dead mark 1 µs past it", dead, deadVPTTLUS + 1, false},
		{"RR result past the dead mark's lifetime", rr, deadVPTTLUS + 1, true},
		{"RR result at the table's TTL", rr, CacheTTLUS, true},
		{"RR result 1 µs past it", rr, CacheTTLUS + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKnowledge(CacheTTLUS, knowledgeMaxEntries)
			k.learn(tc.f, known{}, 0)
			if _, ok := k.knows(tc.f, tc.atUS); ok != tc.serve {
				t.Fatalf("served at %d µs: %v, want %v", tc.atUS, ok, tc.serve)
			}
		})
	}
}

// TestCacheGate: with the cache off only dead marks are read and
// written; with it on, every kind but those whose rule bit is set.
func TestCacheGate(t *testing.T) {
	e := &Engine{}
	for kind := range numFacts {
		if got := e.uses(kind); got != (kind == factDead) {
			t.Errorf("cache off: uses(%d) = %v", kind, got)
		}
	}
	e.Opts.UseCache, e.off = true, ruleVerdicts|ruleReach
	for kind := range numFacts {
		if got := e.uses(kind); got != (kind != factVerdicts && kind != factMute && kind != factReach) {
			t.Errorf("cache on, verdicts and reach off: uses(%d) = %v", kind, got)
		}
	}
}

// TestCacheVerdicts: the vantage points out of range of a hop are one fact,
// learnt for every source, that accumulates as a set; it expires the table's TTL after its first
// verdict however recent the last; its slice is never modified in place;
// and its lookups count as neither RR nor traceroute lookups.
func TestCacheVerdicts(t *testing.T) {
	const ttl = 1_000
	k, reg := observed(ttl, 0)
	hop := addr(t, "10.0.0.2")
	a, b, d := addr(t, "10.4.0.1"), addr(t, "10.4.0.2"), addr(t, "10.4.0.3")
	f := fact{kind: factVerdicts, subject: hop}
	verdicts := func(atUS int64) known { v, _ := k.knows(f, atUS); return v }

	if v := verdicts(0); v.addrs != nil {
		t.Fatalf("verdicts on an unknown hop: %+v", v)
	}
	k.learn(f, known{addrs: []ipv4.Addr{a, b}}, 0)
	held := verdicts(0).addrs
	k.learn(f, known{addrs: []ipv4.Addr{b, d}}, 600) // b is known already
	k.learn(f, known{addrs: []ipv4.Addr{d}}, 900)
	if v := verdicts(ttl); !slices.Equal(v.addrs, []ipv4.Addr{a, b, d}) {
		t.Fatalf("accumulated verdicts = %v, want [a b d]", v.addrs)
	}
	if held = held[:cap(held)]; !slices.Equal(held, []ipv4.Addr{a, b}) {
		t.Fatalf("a slice handed out earlier was written behind: %v", held)
	}
	if k.size() != 1 {
		t.Fatalf("size = %d, want one fact per hop", k.size())
	}
	// The first verdict was written at 0: everything goes at ttl+1, the
	// verdicts written at 600 and 900 included.
	if v := verdicts(ttl + 1); v.addrs != nil || k.size() != 0 {
		t.Fatalf("verdicts served past the TTL of the first: %+v (size %d)", v, k.size())
	}
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
	// A verdict written after the expiry starts a new fact with a new age.
	k.learn(f, known{addrs: []ipv4.Addr{d}}, ttl+1)
	if v := verdicts(2*ttl + 1); len(v.addrs) != 1 || v.addrs[0] != d {
		t.Fatalf("verdicts after re-learning = %+v, want [d]", v)
	}
	for _, name := range []string{"engine_cache_rr_hits_total", "engine_cache_rr_misses_total",
		"engine_cache_tr_hits_total", "engine_cache_tr_misses_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after verdict lookups only, want 0", name, got)
		}
	}
}

// TestCacheMet: the memo of where a source met an AS keeps, per
// source and AS, the lowest TTL a traceroute met a responsive hop of that
// AS at (metTTL; 0, which the machine does not write, where it met none); a
// higher one neither replaces nor refreshes it, a lower one does both; the
// fact expires its TTL after it was last lowered and counts as an
// eviction; and its lookups count as neither RR nor traceroute lookups. The
// memo of how many RR slots a site's replies took into an AS is kept
// beside it under the same rule.
func TestCacheMet(t *testing.T) {
	const ttl = 1_000
	k, reg := observed(ttl, 0)
	src, other := addr(t, "10.0.0.1"), addr(t, "10.0.0.9")
	mapper := stubMapper{addr(t, "10.7.0.1"): 7, addr(t, "10.7.0.2"): 7, addr(t, "10.8.0.1"): 8}
	tr := func(hops ...string) *measure.TracerouteResult {
		out := &measure.TracerouteResult{}
		for _, h := range hops {
			if h == "*" {
				out.Hops = append(out.Hops, measure.TracerouteHop{})
				continue
			}
			out.Hops = append(out.Hops, measure.TracerouteHop{Addr: addr(t, h), Responded: true})
		}
		return out
	}
	met := func(asn topology.ASN, by ipv4.Addr) fact { return fact{factMet, ipv4.Addr(asn), by} }
	least := func(f fact, atUS int64) (int, bool) { v, ok := k.knows(f, atUS); return int(v.least), ok }
	learn := func(f fact, n int, atUS int64) { k.learn(f, known{least: uint8(n)}, atUS) }

	for _, c := range []struct {
		tr   *measure.TracerouteResult
		asn  topology.ASN
		want int
	}{
		{tr("10.8.0.1", "*", "*", "10.7.0.2", "10.7.0.1"), 7, 4},
		{tr("10.8.0.1", "*", "*", "*", "10.7.0.1"), 7, 5},
		{tr("10.8.0.1", "10.7.0.1"), 9, 0},
		{tr("*", "10.7.0.2"), 7, 2},
	} {
		if got := metTTL(c.tr, c.asn, mapper); got != c.want {
			t.Fatalf("metTTL(%v, AS %d) = %d, want %d", c.tr.Hops, c.asn, got, c.want)
		}
	}

	if _, ok := least(met(7, src), 0); ok {
		t.Fatal("memo on an AS never met")
	}
	learn(met(7, src), 4, 0)
	learn(met(7, src), 5, 600) // higher: kept as it was
	if got, ok := least(met(7, src), ttl); !ok || got != 4 {
		t.Fatalf("met(AS 7) = %d, %v; want 4", got, ok)
	}
	if _, ok := least(met(7, other), 0); ok {
		t.Fatal("another source read the memo")
	}
	if k.size() != 1 {
		t.Fatalf("size = %d, want one fact", k.size())
	}
	if _, ok := least(met(7, src), ttl+1); ok || k.size() != 0 {
		t.Fatalf("memo served past its TTL (size %d)", k.size())
	}
	if got := reg.Counter("engine_cache_evictions_total").Value(); got != 1 {
		t.Fatalf("evictions counter = %d, want 1", got)
	}
	learn(met(7, src), 4, 2*ttl)
	learn(met(7, src), 2, 2*ttl+600) // lower: replaces and refreshes
	if got, ok := least(met(7, src), 3*ttl+600); !ok || got != 2 {
		t.Fatalf("met(AS 7) after a lower one = %d, %v; want 2", got, ok)
	}
	// The reach memo is kept apart, under the same rule.
	reach := fact{factReach, ipv4.Addr(7), src}
	learn(reach, 6, 3*ttl)
	learn(reach, 10, 3*ttl+1) // higher: kept as it was
	if got, ok := least(reach, 3*ttl+1); !ok || got != 6 {
		t.Fatalf("reach(AS 7) = %d, %v; want 6", got, ok)
	}
	if got, _ := least(met(7, src), 3*ttl+1); got != 2 || k.size() != 2 {
		t.Fatalf("met(AS 7) = %d beside the reach memo (size %d); want 2 (size 2)", got, k.size())
	}
	for _, name := range []string{"engine_cache_rr_hits_total", "engine_cache_rr_misses_total",
		"engine_cache_tr_hits_total", "engine_cache_tr_misses_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after memo lookups only, want 0", name, got)
		}
	}
}

// TestCacheWitness: an AS's deafness to a source (factDeaf) follows the
// atlas's witness rule. A silent round at one hop, or at the same hop twice,
// makes no deafness; one at a second hop does, aged from the first witness;
// so does a sure witness alone. A reply clears the AS for the fact's whole
// lifetime, before or after it was deaf, whatever witness follows; past that
// lifetime witnesses count again. Another source reads none of it, and the
// fact is read and written only with the cache on and the deaf ASes' rule
// bit clear; a hop's muteness, whose reply makes a witness sure, only with
// the shared verdicts' bit clear.
func TestCacheWitness(t *testing.T) {
	const ttl = 1_000
	src, other := addr(t, "10.0.0.1"), addr(t, "10.0.0.9")
	a, b := addr(t, "10.7.0.1"), addr(t, "10.7.0.2")
	f := fact{factDeaf, ipv4.Addr(7), src}
	type write struct {
		atUS int64
		v    known
	}
	silent := func(atUS int64, hop ipv4.Addr) write { return write{atUS, known{hop: hop}} }
	sure := func(atUS int64, hop ipv4.Addr) write { return write{atUS, known{hop: hop, silent: true}} }
	reply := func(atUS int64) write { return write{atUS, known{}} }
	for _, tc := range []struct {
		name   string
		writes []write
		atUS   int64
		deaf   bool
	}{
		{"one hop", []write{silent(0, a)}, 0, false},
		{"the same hop twice", []write{silent(0, a), silent(100, a)}, 100, false},
		{"two hops", []write{silent(0, a), silent(600, b)}, ttl, true},
		{"two hops, past the first witness's lifetime", []write{silent(0, a), silent(600, b)}, ttl + 1, false},
		{"three hops, aged from the first", []write{silent(0, a), silent(600, b), silent(700, addr(t, "10.7.0.3"))}, ttl + 1, false},
		{"a sure witness", []write{sure(0, a)}, ttl, true},
		{"a sure witness after one at its hop", []write{silent(0, a), sure(600, a)}, ttl, true},
		{"a reply before", []write{reply(0), silent(100, a), silent(200, b), sure(300, a)}, 300, false},
		{"a reply after deaf", []write{silent(0, a), silent(100, b), reply(200), silent(300, a), sure(400, b)}, 400, false},
		{"a reply's whole lifetime", []write{silent(0, a), reply(100), silent(ttl+100, b), sure(ttl+100, a)}, ttl + 100, false},
		{"witnesses past a reply's lifetime", []write{reply(0), silent(ttl+1, a), silent(ttl+2, b)}, ttl + 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKnowledge(ttl, 0)
			for _, w := range tc.writes {
				k.learn(f, w.v, w.atUS)
			}
			if v, ok := k.knows(f, tc.atUS); ok && v.silent != tc.deaf || !ok && tc.deaf {
				t.Fatalf("deaf at %d µs: %v (held %v), want %v", tc.atUS, v.silent, ok, tc.deaf)
			}
			if v, _ := k.knows(fact{factDeaf, ipv4.Addr(7), other}, tc.atUS); v.silent {
				t.Fatal("another source read the AS deaf")
			}
		})
	}
	e := &Engine{}
	for _, c := range []struct {
		cache      bool
		off        rules
		deaf, mute bool
	}{{false, 0, false, false}, {true, 0, true, true}, {true, ruleDeaf, false, true}, {true, ruleVerdicts, true, false}} {
		e.Opts.UseCache, e.off = c.cache, c.off
		if got := e.uses(factDeaf); got != c.deaf {
			t.Errorf("cache %v, rules off %b: uses(factDeaf) = %v, want %v", c.cache, c.off, got, c.deaf)
		}
		if got := e.uses(factMute); got != c.mute {
			t.Errorf("cache %v, rules off %b: uses(factMute) = %v, want %v", c.cache, c.off, got, c.mute)
		}
	}
}

// TestCacheMute: a hop's muteness (factMute) merges as an AS's deafness
// does, every witness a sure one. A silent close's witness makes the hop
// mute for every source, aged from the first; an RR reply from it clears it
// for the fact's whole lifetime, and no witness after the reply outweighs
// it; past that lifetime a witness counts again.
func TestCacheMute(t *testing.T) {
	const ttl = 1_000
	hop := addr(t, "10.7.0.1")
	f := fact{kind: factMute, subject: hop}
	type write struct {
		atUS int64
		v    known
	}
	witness := func(atUS int64) write { return write{atUS, known{hop: hop, silent: true}} }
	reply := func(atUS int64) write { return write{atUS, known{}} }
	for _, tc := range []struct {
		name        string
		writes      []write
		atUS        int64
		held, muted bool
	}{
		{"unknown", nil, 0, false, false},
		{"a witness sets it", []write{witness(0)}, ttl, true, true},
		{"a second witness ages it from the first", []write{witness(0), witness(600)}, ttl + 1, false, false},
		{"a reply clears it", []write{witness(0), reply(100)}, 100, true, false},
		{"a witness after the reply is dropped", []write{witness(0), reply(100), witness(200)}, 200, true, false},
		{"a witness after a reply alone is dropped", []write{reply(0), witness(100)}, ttl, true, false},
		{"a reply's whole lifetime", []write{reply(0), witness(ttl)}, ttl, true, false},
		{"a witness past a reply's lifetime", []write{reply(0), witness(ttl + 1)}, ttl + 1, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKnowledge(ttl, 0)
			for _, w := range tc.writes {
				k.learn(f, w.v, w.atUS)
			}
			if v, ok := k.knows(f, tc.atUS); ok != tc.held || v.silent != tc.muted {
				t.Fatalf("at %d µs: held %v, mute %v; want %v, %v", tc.atUS, ok, v.silent, tc.held, tc.muted)
			}
		})
	}
}

// stubMapper maps the addresses it holds to their AS and no others.
type stubMapper map[ipv4.Addr]topology.ASN

func (m stubMapper) ASOf(a ipv4.Addr) (topology.ASN, bool) {
	asn, ok := m[a]
	return asn, ok
}
