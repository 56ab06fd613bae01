package core

// The resumable measurement state machine. A reverse traceroute is an
// explicit state record (Machine) that advances through the Fig 2
// control flow with pure compute steps and *suspends* whenever it needs
// probe results — most importantly across a spoofed batch, which is over
// when its last reply lands at the source or, short of one, at the 10 s
// timeout where measurement latency goes (§5.2.4; spoofWait). While
// suspended a measurement costs memory, not a parked goroutine, so one
// process can keep tens of thousands in flight. What a suspension cost —
// packets, virtual wait, spoofed-batch count — is booked by Deliver alone;
// the phase handlers only decide.
//
// The protocol is pull/push:
//
//	mm := eng.Begin(ctx, src, dst)
//	for p := mm.Next(); p != nil; p = mm.Next() {
//	    mm.Deliver(eng.ExecPending(mm.Context(), p)) // or async
//	}
//	res := mm.Result()
//
// Next runs compute phases until the machine either finishes or emits a
// Pending — the description of the probe work it is waiting on. The
// caller executes that work however it likes (synchronously through
// ExecPending, or asynchronously through probe.Pool.Go) and resumes the
// machine with Deliver. Calling Next again before Deliver returns the
// same Pending.
//
// Determinism: a Machine never reads the wall clock or shared mutable
// state besides the engine caches; a probe's identity is what it is and
// the measurement's salt, exactly as in the blocking engine, so the
// suspension points — and Clone/resume at any of them — cannot change
// replies, counters, or hops (TestResumeBitIdentity).
import (
	"cmp"
	"context"
	"maps"
	"math"
	"slices"
	"time"

	"revtr/internal/core/segments"
	"revtr/internal/detrand"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// PendingKind distinguishes the two shapes of suspended probe work.
type PendingKind uint8

const (
	// PendingProbes is a batch of probe requests (direct or spoofed RR,
	// Timestamp) to run as one pool batch.
	PendingProbes PendingKind = iota
	// PendingTraceroute is one forward Paris traceroute.
	PendingTraceroute
)

// Pending describes the probe work a suspended Machine is waiting on.
// The requests (or the traceroute) carry the measurement's salt, so
// executing a Pending is deterministic no matter when or on which
// goroutine it runs. The field order keeps it in the 128-byte size class.
type Pending struct {
	Kind PendingKind
	// Spoofed marks a batch of spoofed probes (an RR sweep's, revtr 1.0's
	// spoofed Timestamp): Deliver books it as one of Result.SpoofBatches and
	// charges it Machine.spoofWait, not its slowest round trip — where
	// measurement latency goes.
	Spoofed bool
	// Hedges marks a spoofed round's hedges, sent after its lead (the
	// Pending before): not another of SpoofBatches.
	Hedges bool
	// Once marks a batch whose probes go out once each, whatever the pool's
	// retry policy: a direct RR probe the round behind it re-asks
	// (Machine.rrRetries), and the hedges behind a silent lead, its retries
	// from other vantage points (budgetHedges). Leads keep the pool's retries.
	Once bool
	// Reqs is the batch (Kind == PendingProbes).
	Reqs []probe.Request
	// Trace is the traceroute a symmetry start row chose (Kind ==
	// PendingTraceroute), fixed here so every way of executing the Pending —
	// blocking, from a pool callback, on a clone — sends the same packets.
	measure.Trace
}

// Delivery carries the completion of a Pending back into the machine.
type Delivery struct {
	// Batch answers a PendingProbes suspension.
	Batch probe.Batch
	// Tr and TrSent answer a PendingTraceroute suspension.
	Tr     measure.TracerouteResult
	TrSent int
}

// phase enumerates the machine's control-flow positions. *Wait phases
// always hold a Pending and are only left through Deliver; the others
// are pure compute and are advanced by Next.
type phase uint8

const (
	phTop phase = iota
	phRRWait
	phSpoofNext
	phSpoofWait
	phAfterRR
	phTS
	phTSNext
	phTSDirectWait
	phTSSpoofWait
	phSym
	phTrWait
	phDone
)

// tsState is the Timestamp adjacency sweep in progress.
type tsState struct {
	adjs []ipv4.Addr
	i, n int
	adj  ipv4.Addr
}

// Machine is one measurement's complete suspended state: current hop,
// visited set, partial Result, the pending probe work, per-measurement
// probe accounting, and the per-technique sweep cursors. It is
// self-contained — Clone at any suspension point yields an independent
// machine that resumes to a bit-identical Result. A Machine is not safe
// for concurrent use; drive it from one goroutine at a time (completion
// callbacks count as the driving goroutine once Deliver is called).
type Machine struct {
	e   *Engine
	src Source
	dst ipv4.Addr

	m         mctx
	res       *Result
	wallStart time.Time

	ph       phase
	pending  *Pending
	finished bool

	step      int
	cur       ipv4.Addr
	visited   map[ipv4.Addr]bool
	excludeAS int32

	rr  rrStage
	ts  tsState
	sym symStage
	// revDist is how many hops the cursor is from the source along the
	// reverse path: read off the TTL of every RR reply a stage draws (heard)
	// and carried across adoptions less the hops adopted, so a hop that
	// answers nothing still has one. Negative: no reply has said, or more
	// hops were adopted than it counted.
	revDist int

	// segs accumulates the path's segments at adoption granularity —
	// one entry per (stitching cursor, adopted hop group) — for
	// publication to Options.SegmentStore on successful completion.
	segs []segments.PathSeg

	// sink, when set via SetSink, receives typed progress events at
	// each state transition. eseq is the per-measurement event sequence
	// counter: events are stamped only with deterministic state (eseq,
	// virtual time), so for a fixed seed the emitted sequence is
	// bit-identical across worker counts and across the blocking and
	// asynchronous drive paths.
	sink func(stream.Event)
	eseq uint64
}

// SetSink attaches a progress-event sink (nil for none) and emits the
// opening "started" event. Call immediately after Begin, before driving.
// The sink is invoked synchronously on whichever goroutine is advancing
// the machine (one at a time, per the Machine contract); it must not
// block — hand events to a non-blocking fan-out such as
// stream.Broker.Publish. The measurement's src and dst are formatted
// here, once, and stamped on every event the sink receives.
func (mm *Machine) SetSink(sink func(stream.Event)) {
	mm.sink = sink
	if sink != nil {
		src, dst := mm.res.Src.String(), mm.res.Dst.String()
		mm.sink = func(ev stream.Event) {
			ev.Src, ev.Dst = src, dst
			sink(ev)
		}
	}
	mm.emit(stream.Event{Kind: stream.KindStarted})
	// Begin seeds the result with the destination hop before any sink
	// can attach; mirror it so hop events and result hops correspond 1:1.
	mm.emitHops(0)
}

// observed reports whether anything consumes this machine's events.
func (mm *Machine) observed() bool { return mm.sink != nil || mm.e.logger != nil }

// emit stamps and delivers one progress event: the per-measurement
// sequence number and the accumulated virtual probing time — never the
// wall clock, so the stamps are deterministic. Src/Dst, which identify
// the measurement on every event, are the sink's (SetSink) and the
// logger's own to format. It is the only caller of the sink and of
// the engine's debug logger, so a log line is an event: same stamps,
// same order, "stage" naming the technique. An unobserved machine (the
// served traffic without a follower) builds nothing.
func (mm *Machine) emit(ev stream.Event) {
	if !mm.observed() {
		return
	}
	mm.eseq++
	ev.Seq = mm.eseq
	ev.VirtUS = mm.res.DurationUS
	if mm.sink != nil {
		mm.sink(ev)
	}
	if l := mm.e.logger; l != nil {
		l.Debug(ev.Kind, "seq", ev.Seq, "virtualUs", ev.VirtUS, "src", mm.res.Src.String(), "dst", mm.res.Dst.String(),
			"stage", ev.Tech, "hop", ev.Hop, "spliced", ev.Spliced, "count", ev.Count,
			"status", ev.Status, "reason", ev.Reason)
	}
}

// emitHops emits one hop event per result hop adopted since mark, with
// its revealing technique and splice provenance.
func (mm *Machine) emitHops(mark int) {
	if !mm.observed() {
		return
	}
	for _, h := range mm.res.Hops[mark:] {
		mm.emit(stream.Event{
			Kind: stream.KindHop, Hop: h.Addr.String(),
			Tech: h.Tech.String(), Spliced: h.Spliced,
		})
	}
}

// fallback moves the machine to the next technique's phase and reports
// the technique it falls back to.
func (mm *Machine) fallback(next Technique, ph phase) {
	mm.emit(stream.Event{Kind: stream.KindFallback, Tech: next.String()})
	mm.ph = ph
}

// Begin opens a measurement of the reverse path from dst back to src as
// a resumable state machine. ctx deadlines and cancellation are
// honoured between stages and between spoofed batches, exactly as in
// MeasureReverse.
func (e *Engine) Begin(ctx context.Context, src Source, dst ipv4.Addr) *Machine {
	mm := &Machine{
		e:   e,
		src: src,
		dst: dst,
		m:   mctx{ctx: ctx, salt: detrand.Mix64(uint64(src.Agent.Addr)<<32 | uint64(dst))},
		res: &Result{
			Src:  src.Agent.Addr,
			Dst:  dst,
			Hops: []Hop{{Addr: dst, Tech: TechDestination}},
		},
		wallStart: time.Now(), //revtr:wallclock engine wall-time metric, distinct from virtual probe time
		ph:        phTop,
		cur:       dst,
		visited:   map[ipv4.Addr]bool{dst: true},
		excludeAS: -1,
		revDist:   -1,
	}
	if e.Opts.ExcludeAtlasFromDstAS {
		if asn, ok := e.Mapper.ASOf(dst); ok {
			mm.excludeAS = int32(asn)
		}
	}
	return mm
}

// Next advances the machine until it suspends on probe work or
// finishes. It returns the Pending to execute, or nil when the
// measurement is done (read Result). Calling Next again before the
// current Pending is Delivered returns the same Pending.
func (mm *Machine) Next() *Pending {
	for !mm.finished && mm.pending == nil {
		switch mm.ph {
		case phTop:
			mm.stepTop()
		case phSpoofNext:
			mm.stepSpoofNext()
		case phAfterRR:
			mm.stepAfterRR()
		case phTS:
			mm.stepTS()
		case phTSNext:
			mm.stepTSNext()
		case phSym:
			mm.stepSym()
		default:
			// Wait phases always hold a Pending; phDone sets finished.
			panic("core: Machine.Next in a wait phase without pending work")
		}
	}
	return mm.pending
}

// Deliver resumes a suspended machine with the outcome of its pending
// probe work. It must be called exactly once per Pending returned by
// Next; call Next afterwards to advance to the next suspension.
//
// It is also the one place a suspension is charged, before the phase
// handler sees the replies: the packets sent, then the virtual time waited
// — a traceroute's round trips, a direct batch's slowest reply (of one
// probe: its own), a spoofed round's spoofWait and its place in
// SpoofBatches.
func (mm *Machine) Deliver(d Delivery) {
	if mm.finished || mm.pending == nil {
		panic("core: Machine.Deliver without pending work")
	}
	p := mm.pending
	mm.pending = nil
	var waitUS int64
	if p.Kind == PendingTraceroute {
		mm.m.count.Traceroute += uint64(d.TrSent)
		waitUS = d.Tr.RTTUS
	} else {
		mm.m.count = mm.m.count.Add(d.Batch.Sent)
		waitUS = d.Batch.MaxRTTUS
	}
	if mm.m.ctx.Err() != nil && skippedByCancel(p, d) {
		// The pool stopped launching on cancellation: the unsent requests
		// carry zero-value replies (Sent == false) that the handlers would
		// misread as "probed but silent", skewing coverage accounting.
		// Charged what was sent and nothing else, the measurement ends
		// cancelled, not as a technique failure.
		mm.failCancelled()
		return
	}
	if p.Spoofed {
		waitUS = mm.spoofWait(p, d.Batch)
	}
	mm.res.DurationUS += waitUS
	switch mm.ph {
	case phRRWait:
		mm.onRRDirect(d.Batch)
	case phSpoofWait:
		mm.onSpoofBatch(p.Reqs, d.Batch)
	case phTSDirectWait:
		mm.onTSDirect(d.Batch)
	case phTSSpoofWait:
		mm.onTSSpoof(p.Reqs, d.Batch)
	case phTrWait:
		mm.onTraceroute(p, d)
	default:
		panic("core: Machine.Deliver in a non-wait phase")
	}
}

// skippedByCancel reports whether the delivery reflects probe work the
// pool skipped because the measurement's context was cancelled (the
// caller checked ctx.Err() != nil already). Cancellation is the only
// thing that makes the pool skip a request, so a batch with Skipped > 0
// was cut short by it; a traceroute that holds no hop never started.
func skippedByCancel(p *Pending, d Delivery) bool {
	if p.Kind == PendingTraceroute {
		return len(d.Tr.Hops) == 0
	}
	return d.Batch.Skipped > 0
}

// Done reports whether the measurement has finished.
func (mm *Machine) Done() bool { return mm.finished }

// Result returns the finished measurement, or nil while the machine is
// still running.
func (mm *Machine) Result() *Result {
	if !mm.finished {
		return nil
	}
	return mm.res
}

// Context returns the measurement's context (for executing Pendings).
func (mm *Machine) Context() context.Context { return mm.m.ctx }

// Clone returns an independent deep copy of the machine. Cloning at a
// suspension point and driving only the clone produces a bit-identical
// Result to driving the original — the property test behind the
// suspend/resume contract. The clone shares the engine (and its
// caches) with the original; a Pending must be executed for exactly
// one of the two, since executing it twice would double probe
// accounting.
func (mm *Machine) Clone() *Machine {
	cp := *mm
	r := *mm.res
	r.Hops = slices.Clone(mm.res.Hops)
	r.AtlasUses = slices.Clone(mm.res.AtlasUses)
	cp.res = &r
	cp.visited = maps.Clone(mm.visited)
	cp.m.dead = maps.Clone(mm.m.dead)
	cp.rr.hops = slices.Clone(mm.rr.hops)
	cp.rr.held = slices.Clone(mm.rr.held)
	cp.ts.adjs = slices.Clone(mm.ts.adjs)
	cp.segs = slices.Clone(mm.segs) // hop groups are built once and never mutated
	if mm.pending != nil {
		p := *mm.pending
		p.Reqs = slices.Clone(mm.pending.Reqs)
		if p.Prev != nil {
			p.Prev = &cp.sym.tr
		}
		cp.pending = &p
	}
	return &cp
}

// isDead reports whether the vantage point at a should be skipped:
// either this measurement saw it blacked out, or the knowledge table
// holds a recent death from an earlier measurement (factDead).
func (mm *Machine) isDead(a ipv4.Addr) bool {
	if mm.m.isDead(a) {
		return true
	}
	if _, ok := mm.e.knows(fact{kind: factDead, subject: a}); ok {
		mm.e.metrics.deadVPHits.Inc()
		return true
	}
	return false
}

// vpDied reports a vantage point observed blacked out: remembered in
// both the per-measurement set and the knowledge table, counted
// as a failover, and announced (Hop carries the VP address).
func (mm *Machine) vpDied(a ipv4.Addr) {
	mm.m.markDead(a)
	mm.e.learn(fact{kind: factDead, subject: a}, known{})
	mm.e.metrics.vpFailover.Inc()
	mm.emit(stream.Event{Kind: stream.KindVPFailover, Hop: a.String()})
}

// spliceable reports whether a memoized chain can be adopted: none of
// its hops may already be on this measurement's path. A revisit would
// mean the stored suffix loops back through ground the measurement has
// covered — the blocking-engine loop would have fallen through to the
// next technique there, so splicing must conservatively miss to stay
// path-identical with memoization off.
func (mm *Machine) spliceable(chain []segments.Hop) bool {
	for _, h := range chain {
		if mm.visited[h.Addr] {
			return false
		}
	}
	return true
}

// suspendProbes parks the machine on a probe batch.
func (mm *Machine) suspendProbes(reqs []probe.Request, spoofed bool, next phase) {
	mm.pending = &Pending{Kind: PendingProbes, Reqs: reqs, Spoofed: spoofed}
	mm.ph = next
}

// heard takes the cursor's reverse distance from an answered RR reply,
// direct or spoofed: both travel cursor → source. The reply clears the
// cursor's AS of deafness to the source (factDeaf) and the cursor of
// muteness for every source (factMute), each for the fact's lifetime.
func (mm *Machine) heard(rr measure.RRResult) {
	if d := measure.ReverseHops(rr.ReplyTTL); d >= 0 {
		mm.revDist = d
	}
	if asn, ok := mm.e.Mapper.ASOf(mm.cur); ok {
		mm.e.learn(fact{factDeaf, ipv4.Addr(asn), mm.src.Agent.Addr}, known{})
	}
	mm.e.learn(fact{kind: factMute, subject: mm.cur}, known{})
}

// goTop re-enters the Fig 2 loop for the next reverse hop.
func (mm *Machine) goTop() {
	mm.step++
	mm.ph = phTop
}

// adopted reports the hops appended to the result since mark: one path
// segment anchored at the cursor that adopted them, one hop event each.
func (mm *Machine) adopted(mark int) {
	mm.recordSeg(mm.cur, mark)
	mm.emitHops(mark)
}

// reach closes the path: the hops tech revealed between the cursor and
// the source (none when the cursor already stands on the source's
// doorstep), then the source hop, then the terminal transition.
func (mm *Machine) reach(tech Technique, hops ...ipv4.Addr) {
	mm.e.metrics.stage[tech].Inc()
	mark := len(mm.res.Hops)
	for _, h := range hops {
		mm.res.Hops = append(mm.res.Hops, Hop{Addr: h, Tech: tech})
	}
	mm.e.finish(mm.res, mm.src)
	mm.adopted(mark)
	mm.finishWith(StatusComplete, "")
}

// advance adopts the one new hop tech revealed and re-enters Fig 2 from
// it.
func (mm *Machine) advance(tech Technique, next ipv4.Addr) {
	mm.e.metrics.stage[tech].Inc()
	mm.visited[next] = true
	mark := len(mm.res.Hops)
	mm.res.Hops = append(mm.res.Hops, Hop{Addr: next, Tech: tech})
	mm.adopted(mark)
	mm.revDist--
	mm.cur = next
	mm.goTop()
}

// assumeSym takes one symmetry assumption (Q5), interdomain unless
// intra. It is counted when taken, whatever becomes of the hop.
func (mm *Machine) assumeSym(intra bool) {
	mm.res.SymAssumed++
	mm.e.metrics.symmetry.Inc()
	if !intra {
		mm.res.InterdomainAssumed++
		mm.e.metrics.symInterAS.Inc()
	}
}

// finishWith is the terminal transition: status, per-measurement
// accounting, suspect flags, segment publication, outcome metrics and
// the terminal event. reason says why an aborted or failed measurement
// stopped; it travels on the terminal event only (complete and
// cancelled ones carry none).
func (mm *Machine) finishWith(st Status, reason string) {
	mm.finished = true
	mm.ph = phDone
	mm.res.Status = st
	mm.res.Probes = mm.m.count
	mm.e.flagSuspects(mm.res)
	mm.publishSegments()

	m := &mm.e.metrics
	kind, outcome := stream.KindDone, m.complete
	switch {
	case mm.res.Cancelled:
		kind, outcome = stream.KindCancelled, m.cancelled
	case st == StatusAborted:
		kind, outcome = stream.KindAborted, m.aborted
	case st != StatusComplete:
		kind, outcome = stream.KindFailed, m.failed
	}
	outcome.Inc()
	m.virtualUS.Observe(mm.res.DurationUS)
	m.wallUS.Observe(time.Since(mm.wallStart).Microseconds()) //revtr:wallclock engine wall-time metric, distinct from virtual probe time
	m.cacheSize.Set(int64(mm.e.know.size()))
	mm.emit(stream.Event{Kind: kind, Status: st.String(), Reason: reason})
}

// recordSeg captures the hops just appended to the result
// (res.Hops[mark:]) as one path segment anchored at the stitching
// cursor that adopted them. Segments are collected per adoption — not
// reconstructed from the flat hop list afterwards — because only the
// machine knows which hops it stood on: those cursors are the sole
// positions another measurement can later splice from and reproduce
// this path's addresses exactly.
func (mm *Machine) recordSeg(anchor ipv4.Addr, mark int) {
	if mm.e.Opts.SegmentStore == nil {
		return
	}
	hops := mm.res.Hops[mark:]
	if len(hops) == 0 {
		return
	}
	g := make([]segments.Hop, len(hops))
	for i, h := range hops {
		g[i] = segments.Hop{Addr: h.Addr, Tech: uint8(h.Tech)}
	}
	mm.segs = append(mm.segs, segments.PathSeg{Anchor: anchor, Hops: g})
}

// publishSegments feeds a completed path's freshly measured segments
// back into the shared segment store. A path that ended by splicing a
// stored suffix publishes only its fresh prefix (the splice branch
// records a linkage-only terminator, never the spliced hops):
// republishing a spliced suffix would refresh the TTL of segments this
// measurement never verified, letting a stale segment survive churn
// indefinitely. Aborted, failed, and cancelled measurements publish
// nothing — their hop lists do not reach the source, so their final
// segment is unconfirmed.
func (mm *Machine) publishSegments() {
	st := mm.e.Opts.SegmentStore
	if st == nil || mm.res.Status != StatusComplete || mm.res.Cancelled {
		return
	}
	st.Publish(mm.res.Src, mm.segs, mm.e.Pool.Now())
}

// failCancelled terminates a measurement cut short by its context.
func (mm *Machine) failCancelled() {
	mm.res.Cancelled = true
	mm.finishWith(StatusFailed, "")
}

// stepTop is the head of the Fig 2 loop: hop budget, cancellation,
// source-reached, atlas intersection, then the Record Route stage.
func (mm *Machine) stepTop() {
	e, src, cur := mm.e, mm.src, mm.cur
	if mm.step >= e.maxHops {
		mm.finishWith(StatusFailed, "hop budget exhausted")
		return
	}
	if mm.m.ctx.Err() != nil {
		mm.failCancelled()
		return
	}
	if e.reachedSource(cur, src) {
		mm.reach(TechSource)
		return
	}

	// Step 1: does the current hop intersect a traceroute to S?
	if x, ok := e.atlasLookup(src, cur, mm.excludeAS); ok {
		x.Entry.MarkUseful()
		mm.res.AtlasUses = append(mm.res.AtlasUses, AtlasUse{Entry: x.Entry, Pos: x.Pos})
		mm.reach(TechTrIntersect, x.Suffix...)
		return
	}

	// Step 1b: Doubletree memoization — a prior measurement already
	// revealed the reverse path from cur back to S. Splice the stored
	// suffix instead of re-probing it, marking the hops Spliced. Like
	// the knowledge table, the shared store is deterministic under serial
	// issuance and advisory under concurrent issuance (it changes probe
	// budgets, never the freshness of what is spliced).
	if st := e.Opts.SegmentStore; st != nil {
		if chain, ok := st.Lookup(src.Agent.Addr, cur, e.Pool.Now()); ok {
			e.metrics.segmentHits.Inc()
			if mm.spliceable(chain) {
				e.metrics.segmentSplices.Inc()
				mark := len(mm.res.Hops)
				mm.emit(stream.Event{Kind: stream.KindSpliced, Count: len(chain)})
				for _, h := range chain {
					mm.visited[h.Addr] = true
					mm.res.Hops = append(mm.res.Hops, Hop{
						Addr: h.Addr, Tech: Technique(h.Tech), Spliced: true,
					})
				}
				// Linkage-only terminator: the fresh prefix's last segment
				// must point at this anchor (where the stored chain takes
				// over), not claim to reach the source itself. The spliced
				// hops are deliberately not recorded — see publishSegments.
				mm.segs = append(mm.segs, segments.PathSeg{Anchor: cur})
				e.finish(mm.res, src)
				mm.emitHops(mark)
				mm.finishWith(StatusComplete, "")
				return
			}
		}
	}

	// Step 2: Record Route (Fig 1b–d).
	mm.openRR()
	mm.runRR()
}

// rrStage is one Record Route stage, which next alone decides from. What it
// learnt: the hops revealed (or cached); whether the direct probe went out
// (Reply.Sent) or, skipped, could have (Pool.CanSend), and drew a reply;
// whether a dead vantage point sat a slot out; whether the last round sent a
// probe and drew a reply. Its sweep: the ingress plan (shared, read-only)
// read past the direct probe with the survey it was read off (info, nil if
// none) and the cursor's AS, which keys the reach memo where learn is set;
// the §5.3 budget spent, whether a round came back, the hedges held behind
// its lead (as the plan's sites are, indexes of Engine.Sites and info.Obs)
// and whether the lead waited out the timeout. Its evidence: the RR cache,
// the atlas deaf to the cursor's AS or reaching it only by spoofed pings,
// else the source's own silent rounds (deafBy), the distance out of range,
// whether the cursor is mute (Machine.mute; at the open, the table's alone).
// Whether it closed silent (rrSilent, rrSilentBatch), which the symmetry
// stage at its cursor reads (symStage.next's short give-up).
type rrStage struct {
	hops                                 []ipv4.Addr
	tech                                 Technique
	sent, answered, dead                 bool
	batchSent, batchAnswered, leadWaited bool
	pastDirect, noPrefix, swept, learn   bool
	plan, held                           []int
	info                                 *ingress.PrefixInfo
	asn                                  topology.ASN
	cursor, tried                        int
	cached, deaf, far, mute              bool
	spoofedOnly, closedSilent            bool
	deafBy                               uint8 // where deaf: 0 the atlas, 1 the source's rounds
}

// rrAction is what an RR stage does next: a probe, or a close and why.
type rrAction uint8

const (
	rrDirect      rrAction = iota // send the direct probe
	rrSkip                        // skip it as out of range
	rrBatch                       // send the sweep's next round (stepSpoofNext)
	rrHedges                      // send the hedges a round's lead left held (onSpoofBatch)
	rrCached                      // the RR cache answered, an empty entry included
	rrDeaf                        // the source's atlas, or its own silent rounds, heard no RR reply from the cursor's AS
	rrRevealed                    // a probe revealed reverse hops
	rrSilent                      // the direct probe unanswered, the hop mute or no budget to re-ask it
	rrExhausted                   // no vantage point left in the plan
	rrBudget                      // MaxSpoofVPs vantage points tried
	rrSilentBatch                 // the direct probe and a whole round unanswered
	rrNoPrefix                    // the hop is in no BGP prefix, so has no plan
)

// next maps the stage to its next action, the first row that holds (DESIGN
// "RR stage"); maxVPs is the spoof budget, retries the budget to re-ask a
// silent direct probe (Machine.rrRetries). Silence is evidence only behind
// a measured, unanswered direct probe, before any round or after a whole one;
// a skipped probe (row 5: far, not mute) is no silence of the hop's.
func (st *rrStage) next(maxVPs, retries int) rrAction {
	silence := st.pastDirect && !st.swept && st.measured() && !st.answered
	for _, row := range [...]struct {
		holds bool
		act   rrAction
	}{
		{st.cached, rrCached},
		{st.deaf, rrDeaf},
		{len(st.held) > 0, rrHedges},
		{len(st.hops) > 0, rrRevealed},
		{!st.pastDirect && st.far && !st.mute, rrSkip},
		{!st.pastDirect, rrDirect},
		{silence && (st.mute || !st.far && !st.spoofedOnly && retries == 0), rrSilent},
		{st.noPrefix, rrNoPrefix},
		{st.swept && st.tried >= maxVPs, rrBudget},
		{st.swept && !st.answered && !st.batchAnswered && st.batchSent, rrSilentBatch},
		{st.cursor >= len(st.plan), rrExhausted},
	} {
		if row.holds {
			return row.act
		}
	}
	return rrBatch
}

// measured reports whether the stage was probed, not cached, and every
// probe it planned went out (a vantage point inside a blackout sends none).
func (st *rrStage) measured() bool { return st.sent && !st.dead }

// openRR reads the evidence a stage opens on, each only where the ones
// before it leave the decision open.
func (mm *Machine) openRR() {
	e, cur, st := mm.e, mm.cur, &mm.rr
	*st = rrStage{}
	if k, ok := e.knows(fact{factRR, cur, mm.src.Agent.Addr}); ok {
		st.hops, st.tech, st.cached = k.addrs, k.tech, true
		return
	}
	asn, ok := e.Mapper.ASOf(cur)
	held := false // the atlas holds the AS, deaf or heard answering: it alone decides
	if at := mm.src.Atlas; ok && e.Opts.UseRRAtlas && at != nil {
		st.deaf, held = at.RRDeaf[asn]
		st.spoofedOnly = at.RRSpoofedOnly[asn]
	}
	if ok && !held {
		k, _ := e.knows(fact{factDeaf, ipv4.Addr(asn), mm.src.Agent.Addr})
		st.deaf, st.deafBy = k.silent, 1
	}
	if st.deaf = st.deaf && e.off&ruleDeaf == 0; st.deaf {
		return
	}
	if st.far = mm.distance() > ingress.InRangeHops; st.far {
		st.mute, _, _ = mm.mute()
	}
}

// mute reads the cursor's silence (DESIGN "(2) Unresponsive"): whether the
// knowledge table holds it mute (witness); whether that or the ingress
// survey's silence, which lives beside the table, says it answers no option
// packet (mute); and whether the table or the survey heard it answer one
// (heard), where it is neither.
func (mm *Machine) mute() (witness, mute, heard bool) {
	k, ok := mm.e.knows(fact{kind: factMute, subject: mm.cur})
	if ok && !k.silent || mm.e.Ingress.Heard(mm.cur) {
		return false, false, true
	}
	return k.silent, k.silent || mm.e.gate(ruleVerdicts) && mm.e.Ingress.Silent(mm.cur), false
}

// passDirect moves the stage past its direct probe, unanswered or skipped,
// and reads the cursor's silence, the plan and the cursor's AS, which keys
// the reach memo.
func (mm *Machine) passDirect() {
	e, st := mm.e, &mm.rr
	_, st.mute, _ = mm.mute() // none where the probe was answered: heard
	pfx, ok := e.F.Topo.BGPPrefixOf(mm.cur)
	if st.pastDirect, st.noPrefix = true, !ok; ok {
		plan := e.Ingress.PlanFor(pfx, e.Opts.VPSelection)
		st.plan, st.info = plan.Order, plan.Info
	}
	st.asn, st.learn = e.Mapper.ASOf(mm.cur)
}

// runRR carries out the stage's next action — after a skip, the one that
// follows: suspend on the direct probe or a round's hedges, leave a round to
// stepSpoofNext, or close, counting the close and sharing what it settled
// with every source.
func (mm *Machine) runRR() {
	e, st := mm.e, &mm.rr
	act := st.next(e.Opts.MaxSpoofVPs, mm.rrRetries())
	if act == rrSkip {
		// Record Route's nine slots fill before the reverse path begins (§4.3).
		e.metrics.directRRSkipped.Inc()
		st.sent = e.Pool.CanSend(mm.src.Agent.Addr)
		mm.passDirect()
		act = st.next(e.Opts.MaxSpoofVPs, mm.rrRetries())
	}
	mm.ph = phAfterRR
	switch act {
	case rrDirect:
		mm.suspendProbes([]probe.Request{{Kind: measure.KindRR, VP: mm.src.Agent, Dst: mm.cur, Seq: mm.m.salt}}, false, phRRWait)
		mm.pending.Once = mm.rrRetries() > 0
	case rrBatch:
		mm.ph = phSpoofNext
	case rrHedges:
		mm.suspendProbes(mm.spoofReqs(st.held), true, phSpoofWait)
		mm.pending.Hedges, mm.pending.Once, st.held = true, mm.leadSilent(), nil
	case rrCached:
		if len(st.hops) == 0 {
			e.metrics.cacheRRNegativeHits.Inc()
		}
	case rrDeaf: // the silence is this source's path home, not the hop's: no verdict
		e.metrics.rrDeaf[st.deafBy].Inc()
	case rrRevealed:
		e.learn(fact{factRR, mm.cur, mm.src.Agent.Addr}, known{addrs: st.hops, tech: st.tech})
	case rrSilent:
		st.closedSilent = true
		e.metrics.spoofSweepsUnresponsive.Inc()
		// Where the table did not hold it mute, the witness is shared as if
		// the first round had gone out, where there is one to send.
		if witness, _, _ := mm.mute(); !witness && len(mm.nextBatch()) > 0 {
			mm.shareVerdicts(nil, true)
		}
	case rrSilentBatch:
		st.closedSilent = true
		e.metrics.spoofSweepsSilent.Inc()
		mm.witnessDeaf()
		mm.shareVerdicts(nil, true)
	}
}

// witnessDeaf writes the silent round that closed the stage as a witness that
// the cursor's AS is deaf to the source: a sure one at no retries at a hop the
// survey or a source heard answer, silent on the way home.
func (mm *Machine) witnessDeaf() {
	e, st := mm.e, &mm.rr
	if !st.learn || !st.measured() || !e.uses(factDeaf) {
		return
	}
	_, _, heard := mm.mute()
	e.learn(fact{factDeaf, ipv4.Addr(st.asn), mm.src.Agent.Addr}, known{hop: mm.cur, silent: heard && e.Pool.Retry().Max == 0})
}

// rrRetries is the budget to re-ask a silent direct probe: the pool's
// retries (probe.RetryPolicy.Max) under an ingress plan, whose first round
// asks the probe's question again — so the probe goes out once (Pending.Once),
// the pool re-issuing only the round's lead, and at none its silence closes
// the stage (row 7); -1 where no budget bounds that round: under the plans
// that send it as revtr 1.0 did, or with the rule off.
func (mm *Machine) rrRetries() int {
	if mm.e.Opts.VPSelection != ingress.SelIngress || mm.e.off&ruleSilentDirect != 0 {
		return -1
	}
	return mm.e.Pool.Retry().Max
}

// onRRDirect records the direct RR reply (Fig 1b) and carries on.
func (mm *Machine) onRRDirect(b probe.Batch) {
	st, rep := &mm.rr, b.Replies[0]
	st.sent, st.answered = rep.Sent, rep.RR.Responded
	if st.answered {
		mm.heard(rep.RR)
		st.hops, _ = extractReverse(rep.RR.Recorded, mm.cur, mm.e.Alias)
		st.tech = TechRR
	}
	mm.passDirect()
	mm.runRR()
}

// distance is how many hops out the cursor is expected to be: what a reply
// measured (revDist); else atlas.ASHops of its AS + 1; else of the nearest
// AS next to it + 4. Negative: nothing says.
func (mm *Machine) distance() int {
	if mm.e.off&ruleDistance != 0 {
		return -1
	}
	at := mm.src.Atlas
	if mm.revDist >= 0 || at == nil {
		return mm.revDist
	}
	asn, ok := mm.e.Mapper.ASOf(mm.cur)
	if !ok {
		return -1
	}
	if d, ok := at.ASHops[asn]; ok {
		return d + 1
	}
	dist := -1
	for _, nb := range mm.e.F.Topo.ASes[asn].Neighbors {
		if d, ok := at.ASHops[nb.ASN]; ok && (dist < 0 || d+4 < dist) {
			dist = d + 4
		}
	}
	return dist
}

// stepSpoofNext suspends on the sweep's next round — of an ingress plan,
// the lead alone, the rest held as hedges — or, when no vantage point is
// left to fill one, closes the stage (rrExhausted).
func (mm *Machine) stepSpoofNext() {
	mm.ph = phAfterRR
	if sites, st := mm.nextBatch(), &mm.rr; len(sites) > 0 {
		st.batchSent, st.batchAnswered = false, false
		if mm.e.Opts.VPSelection == ingress.SelIngress && mm.e.off&ruleRounds == 0 {
			mm.byReach(sites)
			sites, st.held = sites[:1:1], sites[1:]
		}
		mm.suspendProbes(mm.spoofReqs(sites), true, phSpoofWait)
	}
}

// nextBatch picks the sites of the next spoofed-RR batch from the §4.3
// ingress order, skipping the source, known-dead vantage points and those
// already seen out of range of cur, and backfilling from further down the
// order so a skipped VP costs its slot, not the whole batch (graceful
// degradation).
func (mm *Machine) nextBatch() []int {
	e, src, cur, st := mm.e, mm.src, mm.cur, &mm.rr
	if mm.m.ctx.Err() != nil || st.cursor >= len(st.plan) {
		return nil
	}
	v, _ := e.knows(fact{kind: factVerdicts, subject: cur})
	sites := make([]int, 0, SpoofBatchSize)
	for st.cursor < len(st.plan) && len(sites) < SpoofBatchSize {
		si := st.plan[st.cursor]
		site := e.Sites[si]
		st.cursor++
		if site.Addr == src.Agent.Addr { // that would be the direct probe again
			continue
		}
		if mm.isDead(site.Addr) {
			continue
		}
		if slices.Contains(v.addrs, site.Addr) {
			e.metrics.spoofVPsOutOfRange.Inc()
			continue
		}
		sites = append(sites, si)
	}
	return sites
}

// spoofReqs is the spoofed RR probe of each of sites to the cursor.
func (mm *Machine) spoofReqs(sites []int) []probe.Request {
	reqs := make([]probe.Request, len(sites))
	for i, si := range sites {
		reqs[i] = probe.Request{Kind: measure.KindSpoofedRR, VP: mm.e.Sites[si],
			Src: mm.src.Agent.Addr, Dst: mm.cur, Seq: mm.m.salt}
	}
	return reqs
}

// byReach orders a round's sites by their reach into the cursor's AS,
// fewest slots first; those the memo holds none of follow in plan order.
// Which site leads is the survey's guess until a reply says.
func (mm *Machine) byReach(sites []int) {
	var by [SpoofBatchSize][2]int // reach, site
	for i, si := range sites {
		by[i] = [2]int{mm.reachOf(si), si}
	}
	slices.SortStableFunc(by[:len(sites)], func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	if by[0][1] != sites[0] {
		mm.e.metrics.spoofReachLeads.Inc()
	}
	for i := range sites {
		sites[i] = by[i][1]
	}
}

// reachOf is the fewest RR slots site's spoofed probes needed to reach the
// cursor's AS (factReach), math.MaxInt if the memo does not hold it or is
// not in use.
func (mm *Machine) reachOf(site int) int {
	if !mm.rr.learn {
		return math.MaxInt
	}
	if k, ok := mm.e.knows(fact{factReach, ipv4.Addr(mm.rr.asn), mm.e.Sites[site].Addr}); ok {
		return int(k.least)
	}
	return math.MaxInt
}

// learnReach lowers the memo's reach of the vantage point at vp into the
// cursor's AS to what one reply took: its marker's slot and one, RRSlots+1
// if it showed vp out of range. A reply with no marker says nothing.
func (mm *Machine) learnReach(vp ipv4.Addr, marker int, far bool) {
	if far {
		marker = ipv4.RRSlots
	}
	if mm.rr.learn && marker >= 0 {
		mm.e.learn(fact{factReach, ipv4.Addr(mm.rr.asn), vp}, known{least: uint8(marker + 1)})
	}
}

// spoofWait books the spoofed batch b delivered for p and returns the
// virtual time the measurement waited on it. Every probe has an identity and
// its reply lands at the source being measured for, so a batch that holds a
// reply to every request is over when the slowest one landed (MaxRTTUS,
// retry backoff included). A request without one — silent, lost, never
// sent, its vantage point dead — may yet be answered, and the batch waits
// out the timeout. A round is one of SpoofBatches, counted at its lead; its
// hedges wait too, unless the lead waited out the timeout they flew in.
func (mm *Machine) spoofWait(p *Pending, b probe.Batch) int64 {
	if p.Hedges && mm.rr.leadWaited {
		return 0
	} else if !p.Hedges {
		mm.res.SpoofBatches++
		mm.e.metrics.spoofBatches.Inc()
	}
	short := slices.ContainsFunc(b.Replies, func(rep measure.Reply) bool {
		return !rep.RR.Responded && !rep.TS.Responded
	})
	if mm.rr.leadWaited = short || b.MaxRTTUS >= mm.e.spoofTimeoutUS; !mm.rr.leadWaited {
		return b.MaxRTTUS
	}
	mm.e.metrics.spoofBatchTimeouts.Inc()
	return mm.e.spoofTimeoutUS
}

// shareVerdicts records what the stage settled about cur for every source —
// if it was measured so far: the vantage points a spoofed batch found out of
// range of it, or a silent close as a sure witness that it is mute, which a
// reply some source heard from it outweighs (factMute's merge).
func (mm *Machine) shareVerdicts(far []ipv4.Addr, mute bool) {
	switch {
	case !mm.rr.measured():
	case mute:
		mm.e.learn(fact{kind: factMute, subject: mm.cur}, known{hop: mm.cur, silent: true})
	case len(far) > 0:
		mm.e.learn(fact{kind: factVerdicts, subject: mm.cur}, known{addrs: far})
	}
}

// onSpoofBatch records a round's lead or hedges, reqs answered by b in
// order, and carries on. A dead vantage point could not send: it is
// remembered, and the sweep fails over to the next in the plan without
// charging the budget.
func (mm *Machine) onSpoofBatch(reqs []probe.Request, b probe.Batch) {
	e, cur, st := mm.e, mm.cur, &mm.rr
	st.swept, st.batchSent = true, st.batchSent || b.Sent.SpoofRR > 0
	deadHere := 0
	var best, far []ipv4.Addr
	slots := 0 // of best's array, up to the hop's stamp
	for i, rep := range b.Replies {
		if rep.VPDead {
			mm.vpDied(reqs[i].VP.Addr)
			deadHere++
			continue
		}
		if !rep.RR.Responded {
			continue
		}
		st.batchAnswered = true
		mm.heard(rep.RR)
		hops, marker := extractReverse(rep.RR.Recorded, cur, e.Alias)
		if len(hops) > len(best) {
			best, slots = hops, marker+1
		}
		out := outOfRange(rep.RR.Recorded, marker)
		if out {
			far = append(far, reqs[i].VP.Addr)
		}
		mm.learnReach(reqs[i].VP.Addr, marker, out)
	}
	st.dead = st.dead || deadHere > 0
	mm.shareVerdicts(far, false)
	st.tried += len(b.Replies) - b.Skipped - deadHere
	if len(best) > len(st.hops) {
		st.hops, st.tech = best, TechSpoofRR
		st.held = mm.couldRevealMore(st.held, best, slots)
	}
	mm.budgetHedges()
	mm.runRR()
}

// leadSilent reports whether the round just delivered is a lead that was
// sent and drew no reply, where the silent lead's rule is on.
func (mm *Machine) leadSilent() bool {
	st := &mm.rr
	return st.batchSent && !st.batchAnswered && mm.e.off&ruleSilentLead == 0
}

// budgetHedges cuts the hedges held behind a lead that drew no reply to the
// retry budget (probe.RetryPolicy): they would ask its question again from
// other vantage points, so they are its retries, and go out once each (the
// Pending's Once). With no budget the round ends at its lead.
func (mm *Machine) budgetHedges() {
	st := &mm.rr
	if len(st.held) == 0 || !mm.leadSilent() {
		return
	}
	mm.e.metrics.spoofSilentLeads.Inc()
	st.held = st.held[:min(len(st.held), mm.e.Pool.Retry().Max)]
}

// couldRevealMore returns the hedges, of held, that could reveal more than
// a reply that revealed hops, slots into its Record Route array: none when
// the atlas knows the way home from one of them (adoption stops there), else
// those the ingress survey saw reach the hop's prefix in fewer slots or did
// not measure — less those whose own replies needed more slots than that to
// reach the hop's AS (the reach memo).
func (mm *Machine) couldRevealMore(held []int, hops []ipv4.Addr, slots int) []int {
	if len(held) == 0 || mm.wayHome(hops) >= 0 {
		return nil
	}
	info := mm.rr.info
	return slices.DeleteFunc(held, func(si int) bool {
		if info != nil && info.Obs[si].Dist >= slots {
			return true
		}
		r := mm.reachOf(si)
		if r > slots && r < math.MaxInt {
			mm.e.metrics.spoofReachHeld.Inc()
			return true
		}
		return false
	})
}

// wayHome is the index of the first of hops, new and public, that the atlas
// knows the way home from, or -1.
func (mm *Machine) wayHome(hops []ipv4.Addr) int {
	return slices.IndexFunc(hops, func(h ipv4.Addr) bool {
		if h.IsPrivate() || mm.visited[h] {
			return false
		}
		_, ok := mm.e.atlasLookup(mm.src, h, mm.excludeAS)
		return ok
	})
}

// stepAfterRR ends the RR stage: re-check cancellation, then adopt revealed
// hops or move on to Timestamp, caching a stage measured in full that
// revealed nothing as an empty entry (DESIGN "The empty entry").
func (mm *Machine) stepAfterRR() {
	if mm.m.ctx.Err() != nil {
		mm.failCancelled()
		return
	}
	if len(mm.rr.hops) > 0 {
		mm.e.metrics.stage[mm.rr.tech].Inc()
		mm.adoptRevealed()
		return
	}
	if mm.rr.measured() {
		mm.e.learn(fact{factRR, mm.cur, mm.src.Agent.Addr}, known{})
	}
	mm.fallback(TechTS, phTS)
}

// adoptRevealed appends the RR-revealed hops to the result and decides
// where the loop continues. The adoption ends at the first revealed hop
// the atlas knows the way home from, so the loop intersects there instead
// of probing on from a later one that may intersect nothing.
func (mm *Machine) adoptRevealed() {
	hops := mm.rr.hops
	if i := mm.wayHome(hops); i >= 0 && mm.e.off&ruleCut == 0 {
		hops = hops[:i+1]
	}
	mark := len(mm.res.Hops)
	for _, h := range hops {
		mm.res.Hops = append(mm.res.Hops, Hop{Addr: h, Tech: mm.rr.tech})
	}
	mm.adopted(mark)
	mm.revDist -= len(hops)
	next := lastProbeable(hops)
	if !next.IsZero() && !mm.visited[next] {
		mm.visited[next] = true
		mm.cur = next
		mm.goTop()
		return
	}
	// All new hops private or already seen: fall through to the
	// remaining techniques from the last public hop.
	if !next.IsZero() {
		mm.cur = next
	}
	mm.fallback(TechTS, phTS)
}

// stepTS opens the Timestamp adjacency stage (Q4; revtr 1.0 only).
func (mm *Machine) stepTS() {
	if !mm.e.Opts.UseTimestamp {
		mm.fallback(TechSymmetry, phSym)
		return
	}
	mm.ts = tsState{adjs: mm.e.Adj.Adjacent(mm.cur, mm.src.Agent.Addr)}
	mm.ph = phTSNext
}

// maxTSAdjacencies bounds Timestamp probes per stuck hop.
const maxTSAdjacencies = 10

// stepTSNext issues the next tsprespec probe ⟨cur, adjacency⟩ (Fig 1e).
func (mm *Machine) stepTSNext() {
	cur := mm.cur
	t := &mm.ts
	for t.i < len(t.adjs) && t.n < maxTSAdjacencies {
		adj := t.adjs[t.i]
		t.i++
		if adj.IsPrivate() || adj == cur {
			continue
		}
		t.n++
		t.adj = adj
		mm.suspendProbes([]probe.Request{
			{Kind: measure.KindTS, VP: mm.src.Agent, Dst: cur, Prespec: []ipv4.Addr{cur, adj}, Seq: mm.m.salt},
		}, false, phTSDirectWait)
		return
	}
	mm.tsDone(0)
}

// onTSDirect digests a direct Timestamp reply; silent hops get one
// spoofed try from a site (Table 4's spoof-TS).
func (mm *Machine) onTSDirect(b probe.Batch) {
	e, src, cur := mm.e, mm.src, mm.cur
	t := &mm.ts
	ts := b.Replies[0].TS
	if !ts.Responded {
		// Some hops only answer options probes arriving on other paths.
		for _, site := range e.Sites {
			if !site.CanSpoof || site.Addr == src.Agent.Addr || mm.isDead(site.Addr) {
				continue
			}
			mm.suspendProbes([]probe.Request{
				{Kind: measure.KindSpoofedTS, VP: site, Src: src.Agent.Addr, Dst: cur,
					Prespec: []ipv4.Addr{cur, t.adj}, Seq: mm.m.salt},
			}, true, phTSSpoofWait)
			return
		}
	}
	mm.evalTS(ts)
}

// onTSSpoof digests the spoofed Timestamp fallback: a spoofed batch of
// one, which waits like any other (spoofWait).
func (mm *Machine) onTSSpoof(reqs []probe.Request, b probe.Batch) {
	rep := b.Replies[0]
	if rep.VPDead {
		mm.vpDied(reqs[0].VP.Addr)
	}
	mm.evalTS(rep.TS)
}

// evalTS checks whether a reply stamped both prespecified addresses,
// proving the adjacency is on the reverse path.
func (mm *Machine) evalTS(ts measure.TSResult) {
	if ts.Responded && len(ts.Stamped) == 2 && ts.Stamped[0] && ts.Stamped[1] {
		mm.tsDone(mm.ts.adj)
		return
	}
	mm.ph = phTSNext
}

// tsDone closes the Timestamp stage, adopting next if it is new.
func (mm *Machine) tsDone(next ipv4.Addr) {
	if !next.IsZero() && !mm.visited[next] {
		mm.advance(TechTS, next)
		return
	}
	mm.fallback(TechSymmetry, phSym)
}

// symStage is one symmetry stage (§4.4's fallback, Q5), which next alone
// decides from: the traceroute in hand (have), the target it was sent to
// (zero out of the engine cache) and what readTraceroute read off it —
// kept across stages for a chain step; else where the next one starts and
// how its window climbs (Engine.inAS) and gives up; and the rules off. The
// field order packs it into 112 bytes: a Machine, allocation header
// included, stays in the 576-byte size class.
type symStage struct {
	tr                            measure.TracerouteResult
	within                        func(hop, dst ipv4.Addr) bool
	ttl, met, dist, median        int
	to, penult, cur               ipv4.Addr
	off                           rules
	have, adjacent, intra, onPath bool
	chained, silentRR, atDst      bool
}

// symAction is what a symmetry stage does next: send a traceroute, started
// as one of the start rows says, or close on the one in hand.
type symAction uint8

const (
	symChain         symAction = iota // continue the last traceroute below the hop it adopted
	symMemo                           // start where the source's traceroutes met the cursor's AS
	symDistance                       // start one TTL past the cursor's distance
	symMedian                         // start at the atlas median
	symSweep                          // sweep from TTL 1
	symFirstHopAbort                  // the cursor in the first-hop region, the assumption not allowed
	symFirstHopReach                  // the cursor in the first-hop region: assume, reach the source
	symNoPenult                       // no usable penultimate hop
	symDisabled                       // symmetry assumptions disabled (SymNever)
	symInterAbort                     // the last link interdomain under SymIntraOnly
	symOnPath                         // assume, but the penultimate hop is on the path already
	symAdvance                        // assume, adopt the penultimate hop
)

// next maps the stage to its next action, the first row that holds (DESIGN
// "Symmetry stage"), and a start row's traceroute, less the measurement's
// agent and salt; retries is the retry budget (probe.RetryPolicy.Max).
func (s *symStage) next(policy SymmetryPolicy, retries int) (symAction, measure.Trace) {
	memo := s.off&ruleMemo == 0
	forbid := policy == SymNever || policy == SymIntraOnly && !s.intra
	act, start := symSweep, 1
	for _, row := range [...]struct {
		holds bool
		act   symAction
		start int
	}{
		{s.have && s.adjacent && forbid, symFirstHopAbort, 0},
		{s.have && s.adjacent, symFirstHopReach, 0},
		{s.have && s.penult.IsZero(), symNoPenult, 0},
		{s.have && policy == SymNever, symDisabled, 0},
		{s.have && forbid, symInterAbort, 0},
		{s.have && s.onPath, symOnPath, 0},
		{s.have, symAdvance, 0},
		{s.chained && s.off&ruleChain == 0, symChain, s.ttl},
		{memo && s.met > 0, symMemo, s.met},
		{s.dist >= 0, symDistance, s.dist + 1},
		{s.median > 0, symMedian, s.median},
	} {
		if row.holds {
			act, start = row.act, row.start
			break
		}
	}
	if act > symSweep {
		return act, measure.Trace{}
	}
	t := measure.Trace{Dst: s.cur, Start: start, Run: measure.SilentRun}
	if act == symChain {
		t.Prev = &s.tr
		if !s.to.IsZero() {
			t.Dst = s.to
		}
	}
	if memo {
		t.Within = s.within
	}
	// Above a silent RR stage the silence is re-asked only as often as the
	// retry budget allows; it says nothing of the destination's echo.
	if s.silentRR && !s.atDst && s.off&ruleGiveUp == 0 {
		t.Run = min(measure.SilentRun, 2+retries)
	}
	return act, t
}

// lastLink reads the last link of tr, a traceroute toward cur: the nearest
// responsive public hop below cur's echo reply (or the end of the path) and
// its TTL; no penult where that hop is cur or there is none, and adjacent
// where then cur answered within two TTLs, in the source's first-hop
// region. Toward the destination (atDst) only one that reached it counts: a
// host that answered nothing gives no evidence a reverse path exists.
func lastLink(tr *measure.TracerouteResult, cur ipv4.Addr, atDst bool) (penult ipv4.Addr, ttl int, adjacent bool) {
	if atDst && !tr.ReachedDst {
		return 0, 0, false
	}
	last := len(tr.Hops) - 1
	if tr.ReachedDst {
		last--
	}
	for i := last; i >= 0; i-- {
		if h := tr.Hops[i]; h.Responded && !h.Addr.IsPrivate() {
			penult, ttl = h.Addr, i+1
			break
		}
	}
	if penult == cur {
		penult = 0
	}
	return penult, ttl, penult.IsZero() && tr.ReachedDst && len(tr.Hops) <= 2
}

// stepSym opens step 4, forward traceroute + symmetry assumption (Q5): it
// reads the evidence, each only where the ones before it leave the decision
// open — the engine cache's traceroute to the cursor; else whether nothing
// was adopted since the last assumption (the cursor is its hop), the memo,
// the distance, the atlas median — and carries out the first action.
func (mm *Machine) stepSym() {
	e, src, cur, st := mm.e, mm.src, mm.cur, &mm.sym
	*st = symStage{tr: st.tr, to: st.to, ttl: st.ttl, cur: cur, within: e.inAS, off: e.off,
		silentRR: mm.rr.closedSilent, atDst: cur == mm.dst}
	if k, ok := e.knows(fact{factTR, cur, src.Agent.Addr}); ok {
		mm.readTraceroute(*k.tr, 0)
	} else {
		st.chained = mm.res.Hops[len(mm.res.Hops)-1].Tech == TechSymmetry
		if asn, ok := e.Mapper.ASOf(cur); ok {
			k, _ = e.knows(fact{factMet, ipv4.Addr(asn), src.Agent.Addr})
			st.met = int(k.least)
		}
		st.dist = mm.distance()
		if src.Atlas != nil {
			st.median = src.Atlas.MedianHops
		}
	}
	mm.runSym()
}

// readTraceroute takes tr, sent toward to (zero: out of the engine cache),
// into the stage: its last link, and whether that link is intradomain — in
// the first-hop region, whether the cursor is in the source's AS — and its
// penultimate hop on the path already.
func (mm *Machine) readTraceroute(tr measure.TracerouteResult, to ipv4.Addr) {
	st := &mm.sym
	st.tr, st.to, st.have = tr, to, true
	st.penult, st.ttl, st.adjacent = lastLink(&st.tr, mm.cur, st.atDst)
	switch {
	case st.adjacent:
		st.intra = ip2as.SameAS(mm.e.Mapper, mm.cur, mm.src.Agent.Addr)
	case !st.penult.IsZero():
		st.intra, st.onPath = ip2as.SameAS(mm.e.Mapper, st.penult, mm.cur), mm.visited[st.penult]
	}
}

// runSym carries out the stage's next action: close on the traceroute in
// hand, or suspend on the one a start row chose — a chain step in hand on a
// Pending that sends nothing, so that no Next runs two stages.
func (mm *Machine) runSym() {
	e, st := mm.e, &mm.sym
	act, t := st.next(e.Opts.Symmetry, e.Pool.Retry().Max)
	switch act {
	case symFirstHopAbort:
		mm.finishWith(StatusAborted, "first-hop symmetry assumption not allowed")
	case symFirstHopReach:
		mm.assumeSym(st.intra)
		mm.reach(TechSource)
	case symNoPenult:
		mm.finishWith(StatusFailed, "no penultimate hop")
	case symDisabled:
		mm.finishWith(StatusAborted, "symmetry assumptions disabled")
	case symInterAbort:
		mm.finishWith(StatusAborted, "interdomain symmetry assumption required")
	case symOnPath:
		mm.assumeSym(st.intra)
		mm.finishWith(StatusFailed, "penultimate hop already on the path")
	case symAdvance:
		mm.assumeSym(st.intra)
		mm.advance(TechSymmetry, st.penult)
	}
	if act <= symSweep {
		e.metrics.tracerouteStarts[act].Inc()
		t.Agent, t.Salt = mm.src.Agent, mm.m.salt
		mm.pending = &Pending{Kind: PendingTraceroute, Trace: t}
		mm.ph = phTrWait
	}
}

// onTraceroute counts and caches a measured traceroute and reads it.
func (mm *Machine) onTraceroute(p *Pending, d Delivery) {
	e, src, cur := mm.e, mm.src, mm.cur
	// One that put nothing on the wire is not counted as issued; one that
	// holds no hop (cancelled, or the source inside a blackout) measured
	// nothing, and caching it would poison later measurements.
	if d.TrSent > 0 {
		e.metrics.traceroutes.Inc()
		e.metrics.traceroutePackets.Add(uint64(d.TrSent))
		if d.Tr.Swept {
			e.metrics.tracerouteSweeps.Inc()
		} else if p.Run < measure.SilentRun && !d.Tr.ReachedDst {
			e.metrics.tracerouteShortGiveUps.Inc()
		}
	}
	if len(d.Tr.Hops) > 0 && mm.m.ctx.Err() == nil {
		tr := d.Tr // a copy, so that d stays off the heap
		e.learn(fact{factTR, cur, src.Agent.Addr}, known{tr: &tr})
		if asn, ok := e.Mapper.ASOf(cur); ok {
			if ttl := metTTL(&tr, asn, e.Mapper); ttl > 0 {
				e.learn(fact{factMet, ipv4.Addr(asn), src.Agent.Addr}, known{least: uint8(ttl)})
			}
		}
	}
	mm.readTraceroute(d.Tr, p.Dst)
	mm.runSym()
}

// metTTL is the lowest TTL at which tr met a responsive hop of asn, 0 if it
// met none (the met memo, factMet).
func metTTL(tr *measure.TracerouteResult, asn topology.ASN, m ip2as.Mapper) int {
	return slices.IndexFunc(tr.Hops, func(h measure.TracerouteHop) bool {
		a, ok := m.ASOf(h.Addr)
		return h.Responded && ok && a == asn
	}) + 1
}

// ExecPending executes one pending work descriptor synchronously on the
// caller's goroutine and returns the Delivery that resumes the machine.
// MeasureReverse uses it as its drive loop; tests use it to drive
// machines by hand at chosen suspension points.
func (e *Engine) ExecPending(ctx context.Context, p *Pending) Delivery {
	if p.Kind == PendingTraceroute {
		tr, sent := e.Pool.Traceroute(ctx, p.Trace)
		return Delivery{Tr: tr, TrSent: sent}
	}
	return Delivery{Batch: e.Pool.DoWith(ctx, p.Reqs, e.retryFor(p))}
}

// retryFor is the retry policy p's batch runs under: none for a batch sent
// once, the pool's for any other.
func (e *Engine) retryFor(p *Pending) probe.RetryPolicy {
	if p.Once {
		return probe.RetryPolicy{}
	}
	return e.Pool.Retry()
}

// MeasureAsyncStream runs one measurement without parking a goroutine:
// the machine's pending probe work is queued on the pool's asynchronous
// executors and each completion resumes the machine where it suspended.
// done is called exactly once with the finished Result — possibly
// synchronously (cache hits, atlas intersections at the destination, or
// an already-cancelled ctx complete without probe work), otherwise from
// a pool executor goroutine. A measurement that panics mid-flight
// reports done(nil), mirroring the service layer's recover contract for
// the blocking path. Concurrency is bounded by memory: 10k+ suspended
// machines cost heap, while goroutines stay bounded by the pool's
// worker budget.
//
// The machine emits typed events (started, hop reveals, fallbacks, the
// terminal status) to sink as it advances — from whichever goroutine is
// driving it at the time, so the sink must be safe for use across
// goroutines (though never concurrently for one measurement). A nil
// sink measures silently.
//
//revtr:suspends parks the machine between probe rounds; completions resume it on pool executors
func (e *Engine) MeasureAsyncStream(ctx context.Context, src Source, dst ipv4.Addr, sink func(stream.Event), done func(*Result)) {
	mm := e.Begin(ctx, src, dst)
	mm.SetSink(sink)
	e.driveAsync(mm, nil, done)
}

// driveAsync advances a machine until it suspends, then hands the
// pending work to the pool with a completion callback that re-enters
// driveAsync. d, when non-nil, is delivered first (the completion that
// woke the machine).
func (e *Engine) driveAsync(mm *Machine, d *Delivery, done func(*Result)) {
	completed := false
	defer func() {
		if v := recover(); v != nil {
			if completed {
				panic(v)
			}
			done(nil)
		}
	}()
	if d != nil {
		mm.Deliver(*d)
	}
	p := mm.Next()
	if p == nil {
		completed = true
		done(mm.Result())
		return
	}
	if p.Kind == PendingTraceroute {
		e.Pool.GoTraceroute(mm.Context(), p.Trace, func(tr measure.TracerouteResult, sent int) {
			e.driveAsync(mm, &Delivery{Tr: tr, TrSent: sent}, done)
		})
		return
	}
	e.Pool.Go(mm.Context(), p.Reqs, e.retryFor(p), func(b probe.Batch) {
		e.driveAsync(mm, &Delivery{Batch: b}, done)
	})
}
