package core_test

// The differential for the atlas's RR-deaf ASes: a cursor in an AS from
// which the source's atlas heard no RR reply come home opens no RR stage.
// It prices the rule by sending, at every stage the rule closed, the
// direct probe and the first spoofed batch the stage would have opened
// with.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// deafStats is one row of the differential's table: the RR stages the rule
// closed; the probes the test then sent itself, how many drew a reply and
// how many would have revealed a hop; the stages one of them would have
// revealed a hop at; and the completions of the engine as it is against
// one whose sources' atlases name no deaf AS.
type deafStats struct {
	pairs, closed, sent, answered, revealed, stagesRevealed int
	complete, completeHearing                               int
}

func (a *deafStats) add(b deafStats) {
	a.pairs += b.pairs
	a.closed += b.closed
	a.sent += b.sent
	a.answered += b.answered
	a.revealed += b.revealed
	a.stagesRevealed += b.stagesRevealed
	a.complete += b.complete
	a.completeHearing += b.completeHearing
}

// deafDifferential measures pairs twice, each time on a fresh engine from
// newEngine. On the first, the engine as it is, every RR stage the rule
// closes has the test send the stage's direct probe and the first batch of
// its plan — sites as nextBatch picks them, through the engine's pool, with
// sequence numbers of the test's own. A closed stage falls back at once,
// so the fallback event its cursor sends is where the test reads the hop.
// The second pass measures from copies of the sources whose atlas copies
// name no deaf AS: the engine that opens every RR stage.
func deafDifferential(t *testing.T, newEngine func() *core.Engine, pairs []srcDst) deafStats {
	st := deafStats{pairs: len(pairs)}
	bg := context.Background()
	seq := uint64(1) << 32 // clear of every measurement's own numbers

	eng := newEngine()
	deaf := observe(eng).Counter("engine_rr_deaf_skipped_total")
	closeStage := func(src measure.Agent, hop ipv4.Addr) {
		reqs := []probe.Request{{Kind: measure.KindRR, VP: src, Dst: hop}}
		if pfx, ok := eng.F.Topo.BGPPrefixOf(hop); ok {
			far, _ := eng.Verdicts(hop)
			for _, si := range eng.Ingress.PlanFor(pfx, eng.Opts.VPSelection).Order {
				if vp := eng.Sites[si]; vp.Addr != src.Addr && !slices.Contains(far, vp.Addr) && len(reqs) <= core.SpoofBatchSize {
					reqs = append(reqs, probe.Request{Kind: measure.KindSpoofedRR, VP: vp, Src: src.Addr, Dst: hop})
				}
			}
		}
		for i := range reqs {
			seq++
			reqs[i].Seq = seq
		}
		reveals := 0
		for _, rep := range eng.Pool.Do(bg, reqs).Replies {
			if rep.RR.Responded {
				st.answered++
				reveals += btoi(len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > 0)
			}
		}
		st.closed++
		st.sent += len(reqs)
		st.revealed += reveals
		st.stagesRevealed += btoi(reveals > 0)
	}
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		seen := deaf.Value()
		mm.SetSink(func(ev stream.Event) {
			if ev.Kind == stream.KindFallback && deaf.Value() != seen {
				seen = deaf.Value()
				closeStage(pr.src.Agent, mm.Cursor())
			}
		})
		for p := mm.Next(); p != nil; p = mm.Next() {
			mm.Deliver(eng.ExecPending(mm.Context(), p))
		}
		if seen != deaf.Value() {
			t.Fatalf("%s→%s: a closed stage sent no fallback event", pr.src.Agent.Addr, pr.dst)
		}
		st.complete += btoi(mm.Result().Status == core.StatusComplete)
	}

	eng = newEngine()
	deaf = observe(eng).Counter("engine_rr_deaf_skipped_total")
	hearing := map[ipv4.Addr]core.Source{}
	for _, pr := range pairs {
		src, ok := hearing[pr.src.Agent.Addr]
		if !ok {
			src = pr.src
			if at := src.Atlas; at != nil {
				heard := *at // shares the entries and indexes
				heard.RRDeaf = nil
				src.Atlas = &heard
			}
			hearing[pr.src.Agent.Addr] = src
		}
		st.completeHearing += btoi(eng.MeasureReverse(bg, src, pr.dst).Status == core.StatusComplete)
	}
	if n := deaf.Value(); n != 0 {
		t.Fatalf("the engine without deaf ASes closed %d RR stages on them", n)
	}
	return st
}

// TestDeafASDifferential prices the RR stages the atlas's deaf ASes close.
// At every one the test sends the direct probe and the first spoofed batch
// of the stage's plan and records how many drew a reply and would have
// revealed a hop — the stage's first batch, not the sweep a reply would
// have kept going. On clean plans at most 5 % of the closed stages may
// have revealed one; on every corpus the engine must complete no fewer
// paths than one whose atlases name no deaf AS, less 0.5 %. The small
// worlds may close no stage; the benchmark's must exercise the rule.
func TestDeafASDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %6s %9s %9s %7s | %9s %8s", "plan", "pairs", "closed", "sent", "answered", "revealed", "stages", "complete", "hearing")
	var clean deafStats
	row := func(name string, st deafStats) {
		t.Logf("%-14s %6d %6d %6d %9d %9d %7d | %9d %8d", name, st.pairs, st.closed, st.sent, st.answered, st.revealed, st.stagesRevealed, st.complete, st.completeHearing)
	}
	report := func(name string, isClean bool, st deafStats) {
		row(name, st)
		if st.complete*1000 < st.completeHearing*995 {
			t.Errorf("%s: %d paths completed, %d with every RR stage opened: want no fewer, less 0.5 %%", name, st.complete, st.completeHearing)
		}
		if isClean {
			clean.add(st)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			for _, dst := range c.dsts {
				pairs = append(pairs, srcDst{src, dst})
			}
		}
		report(fmt.Sprintf("seed%d/clean", seed), true, deafDifferential(t, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			return eng
		}, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		report(fmt.Sprintf("seed%d/faulty", seed), false, deafDifferential(t, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{Max: 2})
			return eng
		}, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		st := deafDifferential(t, func() *core.Engine { return d.Engine(core.Revtr20Options()) }, pairs)
		report("bench/clean", true, st)
		if st.closed == 0 {
			t.Error("bench/clean: no RR stage closed on a deaf AS: the slice exercises nothing")
		}
	}
	row("clean, total", clean)
	if clean.stagesRevealed*20 > clean.closed {
		t.Errorf("%d of the %d RR stages closed on deaf ASes would have revealed a hop on clean plans, want <= 5%%",
			clean.stagesRevealed, clean.closed)
	}
}
