package core

import (
	"slices"
	"sync"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/ttlcache"
)

// knowledge is what one measurement learns that a later one reads, in one
// table (DESIGN "Virtual-time TTL cache contract"):
//   - Insight 1.4's day of reuse: RR results and traceroutes, per source,
//     because reverse hops depend on the destination of the reply. An empty
//     RR result is a measurement too (Machine.stepAfterRR).
//   - The half of an RR reply settled before the reply is addressed to
//     anybody: which vantage points' forward paths fill the nine slots
//     before a hop, whether it answers option packets at all.
//   - Doubletree's stop sets: per source and AS, the lowest TTL at which
//     one of its traceroutes met a responsive hop of the AS; per site and
//     AS, the fewest RR slots a spoofed reply from a hop of the AS needed
//     to stamp it (Machine.learnReach), which every source reads.
//   - The vantage points seen blacked out, discovered once and then
//     skipped instead of timed out on by every measurement.
//   - Per source, the ASes its option packets do not come home from, learnt
//     from its own silent rounds as atlas.RRDeaf is from its pings; for every
//     source, the hops that answer none, until some source hears one answer.
//
// Expiry, the sweep and the cap are ttlcache's; what differs by kind is its
// row of factRows. Under concurrent issuance the table is advisory — a
// racing measurement may or may not see a fresh fact — which changes how
// fast a measurement converges, never whether it is correct; the
// bit-identity suites issue measurements serially.
type knowledge struct {
	mu      sync.Mutex
	c       *ttlcache.Cache[fact, known]
	metrics *Metrics // never nil: a zero Metrics until Engine.SetMetrics
}

// knowledgeMaxEntries bounds an engine's table, every kind together.
const knowledgeMaxEntries = 1 << 16

// deadVPTTLUS is how long a blacked-out vantage point is skipped: 5
// virtual minutes, long enough to cover a burst of measurements hitting
// the same ingress order, short enough that a recovered VP rejoins the
// rotation promptly.
const deadVPTTLUS int64 = 300_000_000

// factKind is as wide as an address so a fact has no padding and the map
// hashes and compares it as plain memory. RR and traceroute come first:
// they index the hit and miss counters.
type factKind uint32

const (
	factRR       factKind = iota // an RR result: the hop, learnt by the source
	factTR                       // a traceroute: the hop, learnt by the source
	factVerdicts                 // the vantage points out of range of a hop, for every source
	factMet                      // the met memo: an AS, learnt by the source
	factReach                    // the reach memo: an AS, learnt by the site
	factDead                     // a vantage point seen blacked out, for every source
	factDeaf                     // an AS's witnesses of deafness: an AS, learnt by the source
	factMute                     // a hop's witness of muteness, for every source
	numFacts
)

// fact names one piece of knowledge: its kind, what it is about (a hop, a
// vantage point, or an AS number where the kind is a memo) and who learnt
// it (zero where every source reads it).
type fact struct {
	kind    factKind
	subject ipv4.Addr
	by      ipv4.Addr
}

// factLess is the eviction tie-break among facts of equal age: by kind in
// declaration order, then by subject, then by who learnt it.
func factLess(a, b fact) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.subject != b.subject {
		return a.subject < b.subject
	}
	return a.by < b.by
}

// known is a fact's value, by kind: an RR result (addrs the hops revealed,
// none when the stage revealed none; tech), a traceroute (tr, behind a
// pointer so that the far more numerous other facts do not pay for its
// size), a hop's verdicts (addrs the vantage points out of RR range of it,
// never written in place: readers hold the slice without the lock), a memo
// (least), a dead mark (nothing), or a witnessed fact, an AS's deafness or a
// hop's muteness (hop, the first witness, zero once a reply cleared it;
// silent, deaf or mute). sinceUS is when it was learnt; verdicts and
// witnesses age from the first of them. One slice serves both kinds that hold
// addresses: every record is 48 bytes.
type known struct {
	addrs   []ipv4.Addr
	tr      *measure.TracerouteResult
	sinceUS int64
	tech    Technique
	least   uint8
	silent  bool
	hop     ipv4.Addr
}

// merge is how a write meets the fact the table holds.
type merge uint8

const (
	replace    merge = iota // the write replaces it and ages from now
	accumulate              // the vantage points' union, aged from the first
	lower                   // a lower least replaces it and ages from now; a higher one is dropped
	witness                 // a witness at a second hop, or a sure one, makes it deaf (mute) from the first; a reply clears it for the lifetime
)

// factRows is one row per kind: how a write merges, how long the fact is
// served (within the table's TTL, CacheTTLUS on an engine), and which rule
// bit switches it off (none: 0). The cache off (Options.UseCache) switches
// every kind off but dead marks.
var factRows = [numFacts]struct {
	merge  merge
	lifeUS int64
	rule   rules
}{
	factRR:       {replace, CacheTTLUS, 0},
	factTR:       {replace, CacheTTLUS, 0},
	factVerdicts: {accumulate, CacheTTLUS, ruleVerdicts},
	factMet:      {lower, CacheTTLUS, 0},
	factReach:    {lower, CacheTTLUS, ruleReach},
	factDead:     {replace, deadVPTTLUS, 0},
	factDeaf:     {witness, CacheTTLUS, ruleDeaf},
	factMute:     {witness, CacheTTLUS, ruleVerdicts},
}

func newKnowledge(ttlUS int64, maxEntries int) *knowledge {
	return &knowledge{
		c:       ttlcache.New[fact, known](ttlUS, maxEntries, factLess),
		metrics: new(Metrics),
	}
}

// gate reports whether the knowledge rule bit rule acts on is in use: the
// cache on and the bit clear.
func (e *Engine) gate(rule rules) bool { return e.Opts.UseCache && e.off&rule == 0 }

// uses reports whether facts of kind are read and written.
func (e *Engine) uses(kind factKind) bool { return kind == factDead || e.gate(factRows[kind].rule) }

// knows returns what the engine knows of f as of the pool's clock.
func (e *Engine) knows(f fact) (known, bool) {
	if !e.uses(f.kind) {
		return known{}, false
	}
	return e.know.knows(f, e.Pool.Now())
}

// learn writes v as f as of the pool's clock, merged by f's kind.
func (e *Engine) learn(f fact, v known) {
	if e.uses(f.kind) {
		e.know.learn(f, v, e.Pool.Now())
	}
}

// knows looks f up, counting an RR or traceroute lookup's hit or miss, and
// the expired fact it may have dropped.
func (k *knowledge) knows(f fact, nowUS int64) (known, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok, expired := k.c.Get(f, nowUS)
	if ok = ok && nowUS-v.sinceUS <= factRows[f.kind].lifeUS; !ok {
		v = known{}
	}
	if f.kind <= factTR {
		k.metrics.lookup(f.kind, ok, expired)
	} else {
		k.metrics.evicted(expired)
	}
	return v, ok
}

// learn stores v as f, merged with what the table holds, and lets the
// sweep run; every eviction, expired or over the cap, counts into
// engine_cache_evictions_total.
func (k *knowledge) learn(f fact, v known, nowUS int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v.sinceUS = nowUS
	was, ok, expired := known{}, false, 0
	if m := factRows[f.kind].merge; m != replace {
		was, ok, expired = k.c.Get(f, nowUS)
		switch {
		case m == lower && ok && was.least <= v.least:
			return // neither replaced nor refreshed
		case m == witness && ok && was.hop.IsZero():
			return // cleared: no witness outweighs a reply
		case m == witness && ok && !v.hop.IsZero():
			if was.silent || was.hop == v.hop && !v.silent {
				return // deaf already, or the same hop again
			}
			v.sinceUS, v.silent = was.sinceUS, true
		case m == accumulate && ok:
			v.sinceUS = was.sinceUS
			far := slices.Clip(was.addrs) // so that appending copies
			for _, vp := range v.addrs {
				if !slices.Contains(far, vp) {
					far = append(far, vp)
				}
			}
			v.addrs = far
		}
	}
	k.c.Put(f, v, v.sinceUS)
	swept, capped := k.c.MaybeSweep(nowUS)
	k.metrics.evicted(expired + swept + capped)
}

// size is the number of facts the table holds, of every kind.
func (k *knowledge) size() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.c.Len()
}
