package core

import (
	"context"
	"log/slog"

	"revtr/internal/alias"
	"revtr/internal/atlas"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// Source is a Reverse Traceroute source: an endpoint the user controls,
// with its traceroute atlas (built at registration, Appx A).
type Source struct {
	Agent measure.Agent
	Atlas *atlas.Atlas
}

// Hop is one hop of a measured reverse path, destination first.
type Hop struct {
	Addr ipv4.Addr
	Tech Technique
	// SuspectBefore flags a possible missing hop ("*") before this hop:
	// the AS-level link into it is not a known adjacency (§5.2.2).
	SuspectBefore bool
	// Spliced marks a hop adopted from the shared segment store
	// (Options.SegmentStore) rather than measured by this reverse
	// traceroute: Tech records the technique of the measurement that
	// originally revealed it. Provenance, Doubletree-style.
	Spliced bool
}

// Result is a completed (or abandoned) reverse traceroute.
type Result struct {
	Src, Dst ipv4.Addr
	Status   Status
	// Cancelled marks a measurement cut short by its context: Status is
	// StatusFailed, but the failure reflects cancellation rather than a
	// probing outcome, and the metrics account it separately so partial
	// runs do not skew technique-coverage statistics.
	Cancelled bool
	// Hops runs from the destination to the source inclusive.
	Hops []Hop

	// SymAssumed counts symmetry assumptions taken; InterdomainAssumed
	// counts those crossing AS boundaries (only possible under
	// SymAlways).
	SymAssumed         int
	InterdomainAssumed int

	// Probes is the packet budget this measurement consumed.
	Probes measure.Counters
	// DurationUS is the virtual wall-clock cost, booked per suspension by
	// Machine.Deliver: answered probes' round trips and, per spoofed batch
	// (SpoofBatches), its slowest one — or the 10 s timeout when a reply is
	// missing (§5.2.4; Machine.spoofWait).
	DurationUS   int64
	SpoofBatches int

	// AtlasUses lists atlas traceroutes this measurement intersected and
	// the hop position adopted.
	AtlasUses []AtlasUse
}

// AtlasUse records one atlas intersection of a measurement.
type AtlasUse struct {
	Entry *atlas.Entry
	Pos   int
}

// Addrs returns the hop addresses, destination first.
func (r *Result) Addrs() []ipv4.Addr {
	out := make([]ipv4.Addr, len(r.Hops))
	for i, h := range r.Hops {
		out[i] = h.Addr
	}
	return out
}

// HasSuspect reports whether any hop carries the missing-hop flag.
func (r *Result) HasSuspect() bool {
	for _, h := range r.Hops {
		if h.SuspectBefore {
			return true
		}
	}
	return false
}

// Engine measures reverse paths. One engine serves every source's
// measurements and is safe for concurrent use: probes run through the
// shared probe.Pool, the knowledge table is internally locked, and atlas
// usefulness marks are atomic. Each MeasureReverse call keeps its own
// probe accounting, so concurrent measurements do not blur each other's
// budgets.
type Engine struct {
	F       *fabric.Fabric
	Pool    *probe.Pool
	Ingress *ingress.Service
	Sites   []measure.Agent
	Alias   alias.Resolver
	Mapper  ip2as.Mapper
	Adj     AdjacencyProvider
	Opts    Options

	logger  *slog.Logger
	know    *knowledge
	metrics Metrics // zero value records nothing
	off     rules   // the knowledge rules switched off: none outside tests
	// spoofTimeoutUS and maxHops are SpoofTimeoutUS and MaxHops; only
	// this package's tests set others.
	spoofTimeoutUS int64
	maxHops        int
	// inAS is every symmetry traceroute's climb rule (measure.Trace.Within):
	// a hop the Mapper does not place outside the target's AS. Built once,
	// so that a traceroute allocates none.
	inAS func(hop, dst ipv4.Addr) bool
}

// rules is a set of the engine's knowledge rules (DESIGN "Rule switches").
type rules uint16

const (
	ruleDistance     rules = 1 << iota // distance: the direct probe skipped, the traceroute started
	ruleVerdicts                       // shareVerdicts, mute: what a hop settled for every source, and the survey's silence
	ruleRounds                         // stepSpoofNext: lead first
	ruleChain                          // symStage.next: the chain step
	ruleMemo                           // symStage.next: the memo start and the climb (inAS)
	ruleDeaf                           // openRR: the deaf ASes, the atlas's and those the source's own silent rounds found
	ruleCut                            // adoptRevealed: the cut at the way home
	ruleReach                          // byReach, couldRevealMore: the reach memo
	ruleSilentLead                     // budgetHedges: a silent lead's hedges within the retry budget
	ruleGiveUp                         // symStage.next: the short give-up above an RR-silent hop
	ruleSilentDirect                   // rrRetries: a direct probe is asked once, its silence closing the stage at no retries, re-asked by the round at retries
	numRules         = iota
)

// NewEngine assembles an engine over a probe pool. adj may be nil (no
// Timestamp adjacencies).
func NewEngine(f *fabric.Fabric, pool *probe.Pool, ing *ingress.Service, sites []measure.Agent,
	res alias.Resolver, mapper ip2as.Mapper, adj AdjacencyProvider, opts Options) *Engine {
	if adj == nil {
		adj = NoAdjacencies{}
	}
	e := &Engine{
		F: f, Pool: pool, Ingress: ing, Sites: sites,
		Alias: res, Mapper: mapper, Adj: adj, Opts: opts,
		know:           newKnowledge(CacheTTLUS, knowledgeMaxEntries),
		spoofTimeoutUS: SpoofTimeoutUS,
		maxHops:        MaxHops,
	}
	e.inAS = func(hop, dst ipv4.Addr) bool {
		x, okx := e.Mapper.ASOf(hop)
		y, oky := e.Mapper.ASOf(dst)
		return !okx || !oky || x == y
	}
	return e
}

// SetMetrics attaches an observability metric set (nil detaches). The
// engine and its knowledge table record into it from then on. Call before
// issuing measurements.
func (e *Engine) SetMetrics(m *Metrics) {
	if m == nil {
		m = new(Metrics)
	}
	e.metrics = *m
	e.know.metrics = m
}

// SetLogger attaches a structured debug logger: every progress event
// the machine emits (see Machine.emit) is also logged at Debug level,
// with the same seq/virtualUs/src/dst stamps. Call before issuing
// measurements.
func (e *Engine) SetLogger(l *slog.Logger) { e.logger = l }

// mctx is one measurement's probing context: the caller's context
// (deadline and cancellation are checked between Fig 2 stages), the
// per-measurement probe tally, and the salt every probe of the measurement
// carries (measure.Spec.Seq): a hash of its source and destination, so
// that its packets are not another measurement's. Keeping the tally here —
// rather than diffing a shared prober's counters — is what lets
// measurements share one pool without blurring each other's budgets.
type mctx struct {
	ctx   context.Context
	count measure.Counters
	salt  uint64
	// dead is the set of vantage points observed blacked out during this
	// measurement. It is per-measurement (not shared engine state) so the
	// failover decisions stay deterministic: a VP is skipped only after
	// this measurement itself saw it dead, never because a concurrent
	// measurement did.
	dead map[ipv4.Addr]bool
}

// isDead reports whether this measurement saw the VP at a blacked out.
func (m *mctx) isDead(a ipv4.Addr) bool { return m.dead[a] }

// markDead remembers that the VP at a is blacked out.
func (m *mctx) markDead(a ipv4.Addr) {
	if m.dead == nil {
		m.dead = make(map[ipv4.Addr]bool)
	}
	m.dead[a] = true
}

// MeasureReverse measures the reverse path from dst back to src,
// implementing the Fig 2 control flow. It is a thin run-to-completion
// wrapper over the resumable state machine (Begin/Next/Deliver): the
// caller's goroutine drives every pending probe batch synchronously, so
// the behavior — probe identities, accounting, caching, determinism —
// is exactly the machine's. ctx deadlines and cancellation are honoured
// between stages and between spoofed batches: a cancelled measurement
// returns promptly with StatusFailed (and Cancelled set) and its
// partial probe accounting.
func (e *Engine) MeasureReverse(ctx context.Context, src Source, dst ipv4.Addr) *Result {
	return e.MeasureReverseStream(ctx, src, dst, nil)
}

// MeasureReverseStream is MeasureReverse with a progress-event sink:
// the machine emits typed events (started, hop reveals, fallbacks, the
// terminal status) synchronously on the caller's goroutine as it
// advances. The emitted sequence — kinds, hops, per-measurement event
// sequence numbers, virtual timestamps — is bit-identical to the one
// MeasureAsyncStream emits for the same seed. A nil sink measures
// silently.
func (e *Engine) MeasureReverseStream(ctx context.Context, src Source, dst ipv4.Addr, sink func(stream.Event)) *Result {
	mm := e.Begin(ctx, src, dst)
	mm.SetSink(sink)
	for p := mm.Next(); p != nil; p = mm.Next() {
		mm.Deliver(e.ExecPending(mm.Context(), p))
	}
	return mm.Result()
}

// reachedSource reports whether addr is the source or sits on the
// source's first-hop router.
func (e *Engine) reachedSource(addr ipv4.Addr, src Source) bool {
	if addr == src.Agent.Addr {
		return true
	}
	if r, ok := e.F.Topo.RouterOf(addr); ok && r == src.Agent.Router {
		return true
	}
	return false
}

// finish closes a completed path, appending the source hop if the last
// measured hop is not already it. The caller's terminal transition
// (Machine.finishWith) sets the status.
func (e *Engine) finish(res *Result, src Source) {
	if len(res.Hops) == 0 || res.Hops[len(res.Hops)-1].Addr != src.Agent.Addr {
		res.Hops = append(res.Hops, Hop{Addr: src.Agent.Addr, Tech: TechSource})
	}
}

// atlasLookup applies the configuration's intersection rules.
func (e *Engine) atlasLookup(src Source, cur ipv4.Addr, excludeAS int32) (atlas.Intersection, bool) {
	if src.Atlas == nil {
		return atlas.Intersection{}, false
	}
	x, ok := src.Atlas.Lookup(cur)
	if !ok {
		return atlas.Intersection{}, false
	}
	if excludeAS >= 0 && x.Entry.ProbeAS == excludeAS {
		return atlas.Intersection{}, false
	}
	if x.ViaRRAlias && !e.Opts.UseRRAtlas {
		return atlas.Intersection{}, false
	}
	return x, true
}

// flagSuspects inserts "*" markers where the AS-level path crosses a link
// that is not a known AS adjacency — the §5.2.2 heuristic for routers
// that forward RR packets without stamping. Private (unmappable) hops are
// visible as private addresses and need no flag.
func (e *Engine) flagSuspects(res *Result) {
	topo := e.F.Topo
	prevAS := int32(-1)
	prevIdx := -1
	for i := range res.Hops {
		a := res.Hops[i].Addr
		asn, ok := e.Mapper.ASOf(a)
		if !ok {
			continue
		}
		if prevIdx >= 0 && int32(asn) != prevAS {
			if topo.ASes[prevAS].Neighbor(asn) == nil {
				res.Hops[i].SuspectBefore = true
			}
		}
		prevAS = int32(asn)
		prevIdx = i
	}
}
