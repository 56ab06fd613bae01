package core_test

// Tests for the half of a Record Route reply the engine cache keeps for
// every source: which vantage points are out of range of a hop, and which
// hops answer no option packet. The differential prices both verdicts by
// sending what they kept off the wire; the unit cases pin what is and is
// not evidence, when the verdicts expire, what a second source saves, and
// that a sweep behind a filtered plan suspends and resumes like any other.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

// isSpoofSweep reports whether p is a batch of a spoofed-RR sweep.
func isSpoofSweep(p *core.Pending) bool {
	return p.Kind == core.PendingProbes && p.Spoofed && p.Reqs[0].Kind == measure.KindSpoofedRR
}

// verdictStats is one row of the differential's table: the plan slots the
// out-of-range verdict dropped and the RR stages the unresponsive verdict
// closed, each with how many the probes the test then sent itself were
// answered at all and would have revealed a reverse hop.
type verdictStats struct {
	pairs                                int
	slots, slotAnswered, slotRevealed    int
	stages, stageAnswered, stageRevealed int
}

func (a *verdictStats) add(b verdictStats) {
	a.pairs += b.pairs
	a.slots += b.slots
	a.slotAnswered += b.slotAnswered
	a.slotRevealed += b.slotRevealed
	a.stages += b.stages
	a.stageAnswered += b.stageAnswered
	a.stageRevealed += b.stageRevealed
}

// verdictWatch drives measurements on one engine and sends, itself, every
// probe a verdict kept the engine from sending.
type verdictWatch struct {
	t           *testing.T
	eng         *core.Engine
	far, unresp *obs.Counter
	dead        map[ipv4.Addr]bool // vantage points seen blacked out: skipped, not dropped
	st          verdictStats
}

func newVerdictWatch(t *testing.T, eng *core.Engine) *verdictWatch {
	reg := observe(eng)
	return &verdictWatch{
		t: t, eng: eng, dead: map[ipv4.Addr]bool{},
		far:    reg.Counter("engine_spoof_vps_out_of_range_total"),
		unresp: reg.Counter("engine_spoof_sweeps_unresponsive_total"),
	}
}

// send puts one spoofed RR probe on the wire as the engine would have —
// same kind, vantage point, claimed source, target and salt — and reads
// the reply the engine's way.
func (w *verdictWatch) send(vp measure.Agent, src, hop ipv4.Addr, salt uint64) (answered, revealed bool) {
	b := w.eng.Pool.Do(context.Background(), []probe.Request{
		{Kind: measure.KindSpoofedRR, VP: vp, Src: src, Dst: hop, Seq: salt},
	})
	rr := b.Replies[0].RR
	return rr.Responded, rr.Responded && len(core.ExtractReverse(rr.Recorded, hop, w.eng.Alias)) > 0
}

// plan is the ingress order a sweep on hop walks.
func (w *verdictWatch) plan(hop ipv4.Addr) []measure.Agent {
	pfx, ok := w.eng.F.Topo.BGPPrefixOf(hop)
	if !ok {
		return nil
	}
	var out []measure.Agent
	for _, si := range w.eng.Ingress.PlanFor(pfx, w.eng.Opts.VPSelection).Order {
		out = append(out, w.eng.Sites[si])
	}
	return out
}

// measure runs src→dst. Around every step it reads the two verdict
// counters: when a step dropped plan slots it works out which (the walk
// stepSpoofNext made, mirrored from the round that came out of it) and
// sends them; when a delivery closed a stage it sends the plan the sweep
// would have walked, up to the spoof budget.
func (w *verdictWatch) measure(src core.Source, dst ipv4.Addr) *core.Result {
	eng, me := w.eng, src.Agent.Addr
	w.st.pairs++
	mm := eng.Begin(context.Background(), src, dst)
	var hop ipv4.Addr // the hop whose RR stage is in progress
	var plan []measure.Agent
	walked := 0 // plan entries the sweep has consumed
	for {
		farBefore := w.far.Value()
		p := mm.Next()
		// A new stage: opened by its direct probe or — the direct probe
		// skipped — by the first batch of its sweep, or by no pending at all
		// where every slot of that sweep's plan was dropped.
		opened := hop
		if p != nil && (isDirectRR(p) || isSpoofSweep(p)) {
			opened = p.Reqs[0].Dst
		} else if w.far.Value() != farBefore {
			opened = mm.Cursor()
		}
		if opened != hop {
			hop, plan, walked = opened, w.plan(opened), 0
		}
		sweep := p != nil && isSpoofSweep(p) && p.Reqs[0].Dst == hop
		// A round's lead opens it: the round is its requests and the hedges
		// held behind them, which walked no further.
		var round []probe.Request
		if sweep && !p.Hedges {
			round = append(slices.Clone(p.Reqs), mm.Held()...)
		}
		// The walk ends behind the last vantage point of a full round, and
		// at the end of the plan otherwise (a short round, or none at all).
		end := len(plan)
		if len(round) == core.SpoofBatchSize {
			last := round[len(round)-1].VP.Addr
			end = 1 + slices.IndexFunc(plan, func(a measure.Agent) bool { return a.Addr == last })
		}
		var dropped []measure.Agent
		if round != nil || w.far.Value() != farBefore {
			for ; walked < end; walked++ {
				vp := plan[walked]
				inBatch := slices.ContainsFunc(round, func(r probe.Request) bool { return r.VP.Addr == vp.Addr })
				if vp.Addr != me && !w.dead[vp.Addr] && !inBatch {
					dropped = append(dropped, vp)
				}
			}
		}
		if n := int(w.far.Value() - farBefore); n != len(dropped) {
			w.t.Errorf("%s→%s hop %s: engine_spoof_vps_out_of_range_total +%d, the plan walk accounts for %d dropped slots",
				me, dst, hop, n, len(dropped))
		}
		for _, vp := range dropped {
			w.st.slots++
			answered, revealed := w.send(vp, me, hop, mm.Salt())
			w.st.slotAnswered += btoi(answered)
			w.st.slotRevealed += btoi(revealed)
		}
		if p == nil {
			return mm.Result()
		}
		d := eng.ExecPending(mm.Context(), p)
		if sweep {
			for i, rep := range d.Batch.Replies {
				if rep.VPDead {
					w.dead[p.Reqs[i].VP.Addr] = true
				}
			}
		}
		unrespBefore := w.unresp.Value()
		mm.Deliver(d)
		if w.unresp.Value() != unrespBefore {
			w.st.stages++
			answered, revealed, sent := false, false, 0
			for _, vp := range plan {
				if vp.Addr == me || w.dead[vp.Addr] || sent >= eng.Opts.MaxSpoofVPs {
					continue
				}
				sent++
				a, r := w.send(vp, me, hop, mm.Salt())
				answered, revealed = answered || a, revealed || r
			}
			w.st.stageAnswered += btoi(answered)
			w.st.stageRevealed += btoi(revealed)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// moreSources returns n sources in distinct ASes of c's world, c.src
// first, each with an atlas built as c.src's was.
func moreSources(c *chaosEnv, n int) []core.Source {
	svc := atlas.NewService(c.env.Prober, c.env.Probes, atlas.FixedSites(c.env.Sites), c.env.Alias, ip2as.Origin{Topo: c.env.Topo}, 25, 8)
	out := []core.Source{c.src}
	for i := 1; len(out) < n; i++ {
		a := c.env.Agent(c.env.SourceHost(i))
		if !slices.ContainsFunc(out, func(s core.Source) bool { return s.Agent.AS == a.AS }) {
			out = append(out, core.Source{Agent: a, Atlas: svc.BuildFor(a)})
		}
	}
	return out
}

// TestRangeVerdictDifferential prices the two source-independent
// verdicts. Several sources measure through one engine; every time a
// verdict drops a plan slot or closes an RR stage the test sends the
// probes itself and records whether anything would have come back and
// whether it would have revealed a hop: the hops the verdicts cost,
// against the packets and 10 s batches they save. On clean plans a
// verdict may cost a hop in at most 1 % of its uses (a target that never
// stamps and is located only through a loop on one source's reverse path
// is the admissible case); the faulty plans, where silence may be loss
// and a source's blackout is not the hop's, are reported.
func TestRangeVerdictDifferential(t *testing.T) {
	t.Logf("%-14s %6s | %6s %9s %9s | %6s %9s %9s", "plan", "pairs",
		"slots", "answered", "revealed", "stages", "answered", "revealed")
	var clean verdictStats
	row := func(name string, st verdictStats) {
		t.Logf("%-14s %6d | %6d %9d %9d | %6d %9d %9d", name, st.pairs,
			st.slots, st.slotAnswered, st.slotRevealed, st.stages, st.stageAnswered, st.stageRevealed)
	}
	report := func(name string, isClean bool, st verdictStats) {
		row(name, st)
		if st.slots == 0 || st.stages == 0 {
			t.Errorf("%s: %d slots dropped, %d stages closed: the plan exercises only one verdict, or none", name, st.slots, st.stages)
		}
		if isClean {
			clean.add(st)
		}
	}
	run := func(eng *core.Engine, pairs []srcDst) verdictStats {
		w := newVerdictWatch(t, eng)
		for _, pr := range pairs {
			w.measure(pr.src, pr.dst)
		}
		return w.st
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			for _, dst := range c.dsts {
				pairs = append(pairs, srcDst{src, dst})
			}
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		report(fmt.Sprintf("seed%d/clean", seed), true, run(eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), false, run(eng, pairs))
	}
	if !testing.Short() {
		// The benchmark's world clean, and then under batch-lossy's plan:
		// 2 % loss, ICMP rate limiting, the last three spoofing sites
		// blacked out, two retries.
		d, pairs := benchSlice()
		report("bench/clean", true, run(d.Engine(core.Revtr20Options()), pairs))

		plan := &faults.Plan{Seed: 31, LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5}
		for i, n := len(d.SiteAgents)-1, 0; i >= 0 && n < 3; i-- {
			if d.SiteAgents[i].CanSpoof {
				plan.AddBlackout(d.SiteAgents[i].Addr, 0, 0)
				n++
			}
		}
		defer d.Fabric.SetFaults(nil) // the world benchSlice built has none
		defer d.Pool.SetRetry(d.Pool.Retry())
		d.Fabric.SetFaults(plan)
		d.Pool.SetRetry(probe.RetryPolicy{Max: 2})
		report("bench/lossy", false, run(d.Engine(core.Revtr20Options()), pairs))
	}
	row("clean, total", clean)
	if cost, uses := clean.slotRevealed+clean.stageRevealed, clean.slots+clean.stages; cost*100 > uses {
		t.Errorf("the verdicts cost a hop in %d of their %d uses on clean plans, want <= 1%%", cost, uses)
	}
}

// nineStamps is a full Record Route array on which nothing locates hop:
// no stamp is the hop's, shares its /30 or repeats.
func nineStamps(hop ipv4.Addr) []ipv4.Addr {
	out := make([]ipv4.Addr, ipv4.RRSlots)
	for i := range out {
		out[i] = hop ^ ipv4.Addr(0x00010000*(i+1))
	}
	return out
}

// TestVerdictEvidence pins what writes a verdict and what does not. One
// stage the silent rule ends (direct probe silent, first round silent) is
// replayed on fresh engines with fabricated deliveries in place of the
// real ones.
func TestVerdictEvidence(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	stuck := findStuckStages(c)
	if len(stuck) == 0 {
		t.Fatal("no sweep ends on the silent rule: the test exercises nothing")
	}
	s := stuck[0]
	bg := context.Background()

	// toSweep drives a fresh measurement of s.dst to the first batch of
	// the sweep on s.hop, delivering direct in place of the stage's direct
	// probe when it is non-nil.
	toSweep := func(t *testing.T, ctx context.Context, direct *measure.Reply) (*core.Engine, *core.Machine, *core.Pending) {
		t.Helper()
		eng, _ := c.engine(1, probe.RetryPolicy{})
		mm := eng.Begin(ctx, c.src, s.dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			if isSpoofSweep(p) && p.Reqs[0].Dst == s.hop {
				return eng, mm, p
			}
			d := eng.ExecPending(mm.Context(), p)
			if direct != nil && isDirectRR(p) && p.Reqs[0].Dst == s.hop {
				d.Batch.Replies[0] = *direct
			}
			mm.Deliver(d)
		}
		t.Fatalf("no sweep on hop %s", s.hop)
		return nil, nil, nil
	}
	// batch fabricates the delivery of p: every request sent, replies as
	// given (silence where reply returns the zero value).
	batch := func(p *core.Pending, reply func(i int) measure.Reply) core.Delivery {
		b := probe.Batch{Replies: make([]measure.Reply, len(p.Reqs))}
		for i := range p.Reqs {
			b.Replies[i] = reply(i)
			if b.Replies[i].Sent {
				b.Sent.SpoofRR++
			}
		}
		return core.Delivery{Batch: b}
	}
	// round delivers p, a round's lead, and the hedges that follow it, the
	// i-th request of the round answered by reply(i).
	round := func(mm *core.Machine, p *core.Pending, reply func(i int) measure.Reply) {
		mm.Deliver(batch(p, reply))
		if next := mm.Next(); next != nil && next.Hedges {
			mm.Deliver(batch(next, func(i int) measure.Reply { return reply(len(p.Reqs) + i) }))
		}
	}
	silence := measure.Reply{Sent: true}
	full := measure.Reply{Sent: true, RR: measure.RRResult{Responded: true, RTTUS: 1000, Recorded: nineStamps(s.hop)}}
	want := func(t *testing.T, eng *core.Engine, far []ipv4.Addr, silent bool) {
		t.Helper()
		gotFar, gotSilent := eng.Verdicts(s.hop)
		if !slices.Equal(gotFar, far) || gotSilent != silent {
			t.Errorf("verdicts on %s: out of range %v, unresponsive %v; want %v, %v", s.hop, gotFar, gotSilent, far, silent)
		}
	}

	t.Run("full array without the hop's stamp", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		round(mm, p, func(i int) measure.Reply {
			if i == 0 {
				return full
			}
			return silence
		})
		want(t, eng, []ipv4.Addr{p.Reqs[0].VP.Addr}, false)
	})
	t.Run("full array with the hop's stamp last", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		last := full
		last.RR.Recorded = slices.Clone(full.RR.Recorded)
		last.RR.Recorded[ipv4.RRSlots-1] = s.hop
		var vps []ipv4.Addr
		for _, r := range append(slices.Clone(p.Reqs), mm.Held()...) {
			vps = append(vps, r.VP.Addr)
		}
		round(mm, p, func(int) measure.Reply { return last })
		want(t, eng, vps, false)
	})
	t.Run("silent batch behind a silent direct probe", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		round(mm, p, func(int) measure.Reply { return silence })
		want(t, eng, nil, true)
	})
	t.Run("short array", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		short := full
		short.RR.Recorded = full.RR.Recorded[:ipv4.RRSlots-1]
		round(mm, p, func(int) measure.Reply { return short })
		want(t, eng, nil, false)
	})
	t.Run("hop's stamp with a slot to spare", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		mid := full
		mid.RR.Recorded = slices.Clone(full.RR.Recorded)
		mid.RR.Recorded[ipv4.RRSlots-2] = s.hop
		round(mm, p, func(int) measure.Reply { return mid })
		want(t, eng, nil, false)
	})
	t.Run("dead vantage point in the batch", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		round(mm, p, func(i int) measure.Reply {
			if i == 0 {
				return measure.Reply{VPDead: true}
			}
			return full
		})
		want(t, eng, nil, false)
		// The round that follows the failover is no evidence either.
		if p = mm.Next(); !isSpoofSweep(p) {
			t.Fatal("the sweep did not go on after the failover")
		}
		round(mm, p, func(int) measure.Reply { return full })
		want(t, eng, nil, false)
	})
	t.Run("unsent requests", func(t *testing.T) {
		eng, mm, p := toSweep(t, bg, nil)
		round(mm, p, func(int) measure.Reply { return measure.Reply{} })
		want(t, eng, nil, false)
	})
	t.Run("cancel-skipped requests", func(t *testing.T) {
		ctx, cancel := context.WithCancel(bg)
		eng, mm, p := toSweep(t, ctx, nil)
		cancel()
		d := eng.ExecPending(mm.Context(), p)
		if d.Batch.Skipped == 0 {
			t.Fatal("the cancelled pool skipped nothing")
		}
		mm.Deliver(d)
		if !mm.Result().Cancelled {
			t.Fatal("the measurement did not end cancelled")
		}
		want(t, eng, nil, false)
	})
	t.Run("direct probe not sent", func(t *testing.T) {
		unsent := measure.Reply{}
		eng, mm, p := toSweep(t, bg, &unsent)
		round(mm, p, func(int) measure.Reply { return silence })
		want(t, eng, nil, false)
		eng, mm, p = toSweep(t, bg, &unsent)
		round(mm, p, func(int) measure.Reply { return full })
		want(t, eng, nil, false)
	})
}

// TestSecondSourceReadsVerdicts: what one source's sweeps settle, a second
// source's do not measure again. B measures the same destinations behind A
// on a shared engine and alone on a fresh one: shared, it sends strictly
// fewer spoofed packets in fewer batches and — the plan is clean — comes
// away with no fewer measured hops or completed paths; once CacheTTLUS has
// passed it costs what the fresh engine's run cost.
func TestSecondSourceReadsVerdicts(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	defer c.env.Pool.Clock().Set(c.env.Pool.Clock().Now())
	srcs := moreSources(c, 2)
	a, b := srcs[0], srcs[1]
	bg := context.Background()

	type tally struct {
		spoofRR            uint64
		batches, completed int
		measuredHops       int // hops a Record Route reply revealed
	}
	day := func(eng *core.Engine, src core.Source) tally {
		var tl tally
		for _, dst := range c.dsts {
			res := eng.MeasureReverse(bg, src, dst)
			tl.spoofRR += res.Probes.SpoofRR
			tl.batches += res.SpoofBatches
			if res.Status == core.StatusComplete {
				tl.completed++
			}
			for _, h := range res.Hops {
				if h.Tech == core.TechRR || h.Tech == core.TechSpoofRR {
					tl.measuredHops++
				}
			}
		}
		return tl
	}

	fresh, _ := c.engine(1, probe.RetryPolicy{})
	alone := day(fresh, b)

	shared, _ := c.engine(1, probe.RetryPolicy{})
	reg := observe(shared)
	day(shared, a)
	behind := day(shared, b)
	t.Logf("B alone: %+v; B behind A: %+v; %d slots skipped, %d stages closed", alone, behind,
		reg.Counter("engine_spoof_vps_out_of_range_total").Value(),
		reg.Counter("engine_spoof_sweeps_unresponsive_total").Value())
	if behind.spoofRR >= alone.spoofRR || behind.batches >= alone.batches {
		t.Errorf("B behind A sent %d spoofed packets in %d batches, alone %d in %d: want strictly fewer",
			behind.spoofRR, behind.batches, alone.spoofRR, alone.batches)
	}
	if behind.measuredHops < alone.measuredHops || behind.completed < alone.completed {
		t.Errorf("B behind A measured %d hops and completed %d paths, alone %d and %d: the verdicts cost coverage on a clean plan",
			behind.measuredHops, behind.completed, alone.measuredHops, alone.completed)
	}
	if reg.Counter("engine_spoof_vps_out_of_range_total").Value() == 0 || reg.Counter("engine_spoof_sweeps_unresponsive_total").Value() == 0 {
		t.Error("one of the two verdicts was never read: the test exercises half of what it claims")
	}

	c.env.Pool.Clock().Advance(core.CacheTTLUS + 1)
	if expired := day(shared, b); expired != alone {
		t.Errorf("B on the shared engine a day later: %+v, want what the fresh engine's run cost: %+v", expired, alone)
	}
}

// TestResumeFilteredSweep: Clone/resume at a spoofed batch built behind
// plan slots a verdict dropped. The machine carries nothing of the
// verdicts — they are read from the engine cache when a batch is built —
// so clone and original both finish as the straight-through run does.
// The cache is on (the verdicts live there), so every run gets an engine
// of its own, prepared by source A measuring the same destinations.
func TestResumeFilteredSweep(t *testing.T) {
	c := newChaosEnv(t, 8, 40)
	srcs := moreSources(c, 2)
	a, b := srcs[0], srcs[1]
	bg := context.Background()
	prepared := func() *core.Engine {
		eng, _ := c.engine(1, probe.RetryPolicy{})
		for _, dst := range c.dsts {
			eng.MeasureReverse(bg, a, dst)
		}
		return eng
	}
	// B's measurements change the cache too: run them in order, and hand
	// back an engine that has seen the first i of them.
	upTo := func(i int) *core.Engine {
		eng := prepared()
		for _, dst := range c.dsts[:i] {
			eng.MeasureReverse(bg, b, dst)
		}
		return eng
	}

	// Find the suspension points on one watched pass.
	type point struct{ dst, boundary int }
	var points []point
	eng := prepared()
	skipped := observe(eng).Counter("engine_spoof_vps_out_of_range_total")
	for i, dst := range c.dsts {
		n := 0
		mm := eng.Begin(bg, b, dst)
		for {
			before := skipped.Value()
			p := mm.Next()
			if p == nil {
				break
			}
			if isSpoofSweep(p) && skipped.Value() != before {
				points = append(points, point{i, n})
			}
			mm.Deliver(eng.ExecPending(mm.Context(), p))
			n++
		}
	}
	if len(points) == 0 {
		t.Fatal("no spoofed batch was built behind a dropped slot: the test exercises nothing")
	}
	if len(points) > 12 {
		points = points[:12]
	}
	for _, pt := range points {
		dst := c.dsts[pt.dst]
		eng := upTo(pt.dst)
		ref, n := driveMachine(eng, eng.Begin(bg, b, dst))
		for _, resumeClone := range []bool{true, false} {
			eng := upTo(pt.dst)
			mm := eng.Begin(bg, b, dst)
			for i := 0; i < pt.boundary; i++ {
				mm.Deliver(eng.ExecPending(mm.Context(), mm.Next()))
			}
			if p := mm.Next(); !isSpoofSweep(p) {
				t.Fatalf("dst %s boundary %d: not suspended on a sweep batch", dst, pt.boundary)
			}
			cl := mm.Clone()
			if !resumeClone {
				cl = mm
			}
			if got, rest := driveMachine(eng, cl); !reflect.DeepEqual(got, ref) || pt.boundary+rest != n {
				t.Fatalf("dst %s: resumed (clone=%v) at boundary %d/%d (+%d pendings) diverged\nref %+v\ngot %+v",
					dst, resumeClone, pt.boundary, n, rest, ref, got)
			}
		}
	}
	t.Logf("%d suspension points behind a filtered plan resumed bit-identically", len(points))
}
