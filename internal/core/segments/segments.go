// Package segments implements Doubletree-style cross-measurement
// memoization of reverse-path segments (Donnet et al., "Efficient
// Algorithms for Large-Scale Topology Discovery"): at scale, distinct
// (src, dst) pairs share most of their reverse *suffixes*, so once one
// measurement has revealed the path from some hop H back to the source
// S, later measurements reaching H can splice the stored suffix instead
// of re-probing it hop by hop.
//
// The store is a reverse-path tree keyed by (source, anchor): an anchor
// is a hop the publishing measurement actually stood on (its stitching
// cursor) when it adopted the following group of hops, and the entry
// records that adopted group plus the next anchor toward the source.
// Anchor granularity — rather than flat (hop -> next hop) links — is
// what makes splicing path-preserving: the group a measurement adopts
// from a hop is a deterministic function of (hop, source) on a static
// fabric, whereas the individual addresses inside a group were recorded
// by a probe *to the anchor* and can name different router interfaces
// than a probe to an intermediate hop would. Entering chains only at
// anchors reproduces exactly what a fresh measurement from that hop
// would have revealed; shared suffixes are still stored once, because
// paths that funnel into an anchor share all segments after it.
//
// A lookup walks anchor -> next anchor -> ... -> src and succeeds only
// when the whole chain is present, fresh, and terminates at the source
// (full-chain-or-nothing): a partial suffix would leave the engine
// mid-path with nothing to continue from.
//
// Staleness and determinism are internal/ttlcache's, shared with the
// engine's knowledge table (internal/core):
// entries expire after a TTL in *virtual* time — never the wall clock —
// so runs are reproducible; expired entries are dropped on lookup and by
// a write-triggered sweep; and a hard size cap evicts oldest-first with
// a total-order tie-break so eviction is deterministic under Go's
// randomized map iteration.
// Under serial issuance the store contents are a pure function of the
// measurement history; under concurrent issuance the store is advisory
// (a racing measurement may or may not see a freshly published
// segment), which changes only how much probing is saved, never whether
// a returned chain was fresh. A nil *Store is valid and always misses.
package segments

import (
	"sync"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/ttlcache"
)

// DefaultTTLUS is the default segment lifetime: one virtual hour. Much
// shorter than the engine's one-day measurement cache because a stale
// segment is spliced into a *different* measurement's path (a wrong
// path), whereas a stale day-cache entry only re-serves the same pair.
const DefaultTTLUS int64 = 3_600_000_000

// DefaultMaxEntries bounds the store when Options does not: ~a quarter
// million anchor segments per process.
const DefaultMaxEntries = 1 << 18

// MaxChain bounds the total hop count of a spliced suffix. Chains
// beyond it are treated as misses: real reverse paths are far shorter,
// so an over-long walk indicates a corrupted or adversarial chain.
const MaxChain = 64

// Hop is one memoized reverse hop: its address and the technique that
// revealed it. Tech carries the raw core.Technique value as uint8 so
// this package does not import core (core imports segments).
type Hop struct {
	Addr ipv4.Addr
	Tech uint8
}

// PathSeg is one segment of a measured reverse path as the engine
// adopted it: the anchor hop the measurement stood on, and the group of
// hops it adopted from there (in path order, ending at the next anchor
// or the source).
type PathSeg struct {
	Anchor ipv4.Addr
	Hops   []Hop
}

// Key addresses one stored segment: the group adopted from Anchor on
// the path back to Src. Keys include the source because reverse paths
// are per-destination-of-the-reply: the same hop routes differently
// toward different sources.
type Key struct {
	Src    ipv4.Addr
	Anchor ipv4.Addr
}

// keyLess is the eviction tie-break among segments of equal age.
func keyLess(a, b Key) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Anchor < b.Anchor
}

type entry struct {
	hops []Hop
	next ipv4.Addr // the following anchor; the source terminates a chain
}

// Options configures a Store.
type Options struct {
	// TTLUS is the segment lifetime in virtual microseconds; <= 0
	// selects DefaultTTLUS.
	TTLUS int64
	// MaxEntries caps the store; <= 0 selects DefaultMaxEntries. Oldest
	// entries are evicted deterministically past the cap.
	MaxEntries int
}

// Store is a shared, TTL'd reverse-segment store. It is internally
// locked: one store typically serves every engine of a process (all
// campaign workers, all service measurements), which is exactly what
// makes cross-measurement sharing pay. The lock spans a whole chain
// walk or a whole Publish, which is why the ttlcache under it has none.
type Store struct {
	mu             sync.Mutex
	ttlUS          int64 // the resolved Options, as handed to c
	maxEntries     int
	c              *ttlcache.Cache[Key, entry]
	staleEvictions *obs.Counter
}

// New builds a segment store. The zero Options selects the defaults.
func New(o Options) *Store {
	if o.TTLUS <= 0 {
		o.TTLUS = DefaultTTLUS
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	return &Store{ttlUS: o.TTLUS, maxEntries: o.MaxEntries,
		c: ttlcache.New[Key, entry](o.TTLUS, o.MaxEntries, keyLess)}
}

// SetObs attaches an observability registry: TTL-expired evictions are
// counted from then on. Call before issuing measurements.
func (s *Store) SetObs(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.staleEvictions = reg.Counter("engine_segment_stale_evictions_total")
}

// TTLUS returns the configured segment lifetime.
func (s *Store) TTLUS() int64 {
	if s == nil {
		return 0
	}
	return s.ttlUS
}

// Len is the number of stored anchor segments.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Len()
}

// Flush drops everything (used between experiment phases).
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Flush()
}

// Clone returns an independent deep copy of the store's contents with
// the same configuration — snapshot support for the differential test
// harness, which must replay measurements against a fixed store state.
func (s *Store) Clone() *Store {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Store{ttlUS: s.ttlUS, maxEntries: s.maxEntries,
		c: s.c.Clone(), staleEvictions: s.staleEvictions}
}

// Lookup walks the stored segments from the anchor `from` back to src
// and returns the concatenated hop suffix (source inclusive). It
// succeeds only when every segment is present and fresh as of virtual
// time nowUS and the chain terminates at the source; expired segments
// encountered on the walk are dropped (and counted as stale evictions)
// and the lookup misses. Cycles and over-long chains miss defensively —
// churn can legitimately publish segments that loop across epochs.
func (s *Store) Lookup(src, from ipv4.Addr, nowUS int64) ([]Hop, bool) {
	if s == nil || from == src {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var chain []Hop
	seen := map[ipv4.Addr]bool{from: true}
	cur := from
	for cur != src {
		e, ok, expired := s.c.Get(Key{Src: src, Anchor: cur}, nowUS)
		if !ok {
			s.staleEvictions.Add(uint64(expired))
			return nil, false
		}
		chain = append(chain, e.hops...)
		if len(chain) > MaxChain {
			return nil, false
		}
		if e.next != src && seen[e.next] {
			return nil, false
		}
		seen[e.next] = true
		cur = e.next
	}
	if len(chain) == 0 || chain[len(chain)-1].Addr != src {
		return nil, false
	}
	return chain, true
}

// Publish stores the segments of one measured reverse path at virtual
// time nowUS. segs must be in path order (destination side first);
// consecutive segments with the same anchor are merged (the engine can
// adopt twice from one hop when a technique falls through), and
// publication stops at a repeated anchor — a second visit means the
// path looped and overwriting the first segment would corrupt the
// chain. A segment with no hops stores nothing but still supplies the
// next-anchor pointer of the segment before it: the engine appends one
// as a terminator when a path ended by splicing a stored suffix, so the
// fresh prefix links into the existing chain. Callers pass only freshly
// measured segments: republishing a spliced suffix would refresh the
// TTL of segments this measurement never verified, and a
// stale-but-self-refreshing segment would survive churn forever.
func (s *Store) Publish(src ipv4.Addr, segs []PathSeg, nowUS int64) {
	if s == nil || len(segs) == 0 {
		return
	}
	merged := make([]PathSeg, 0, len(segs))
	for _, sg := range segs {
		if n := len(merged); n > 0 && merged[n-1].Anchor == sg.Anchor {
			hops := make([]Hop, 0, len(merged[n-1].Hops)+len(sg.Hops))
			hops = append(append(hops, merged[n-1].Hops...), sg.Hops...)
			merged[n-1].Hops = hops
			continue
		}
		merged = append(merged, sg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[ipv4.Addr]bool, len(merged))
	for i, sg := range merged {
		a := sg.Anchor
		if seen[a] {
			break
		}
		seen[a] = true
		// Anchors are the publisher's probed cursor hops: public and
		// non-zero in normal operation. Private or degenerate anchors
		// are ambiguous across routers, so they are never keyed.
		if a.IsZero() || a.IsPrivate() || a == src || len(sg.Hops) == 0 {
			continue
		}
		next := src
		if i+1 < len(merged) {
			next = merged[i+1].Anchor
		}
		s.c.Put(Key{Src: src, Anchor: a}, entry{hops: sg.Hops, next: next}, nowUS)
	}
	// One sweep per Publish, after the whole path is stored. Only expired
	// segments count as stale evictions; cap evictions are not counted.
	expired, _ := s.c.MaybeSweep(nowUS)
	s.staleEvictions.Add(uint64(expired))
}
