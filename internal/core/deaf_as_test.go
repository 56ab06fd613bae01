package core_test

// The differential for the atlas's RR-deaf ASes: a cursor in an AS from
// which the source's atlas heard no RR reply come home opens no RR stage.
// It prices the rule by sending, at every stage the rule closed, the
// direct probe and the first spoofed round the stage would have opened
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
// how many would have revealed a hop; and the stages one of them would have
// revealed a hop at.
type deafStats struct {
	pairs, closed, sent, answered, revealed, stagesRevealed int
}

func (a *deafStats) add(b deafStats) {
	a.pairs += b.pairs
	a.closed += b.closed
	a.sent += b.sent
	a.answered += b.answered
	a.revealed += b.revealed
	a.stagesRevealed += b.stagesRevealed
}

// deafDifferential measures pairs on eng, and every RR stage the rule
// closes has the test send the stage's direct probe and the first round of
// its plan — sites as nextBatch picks them, the lead beside the direct
// probe and the hedges if neither revealed — through the engine's pool,
// salted as the machine's own. A closed stage falls back at
// once, so the fallback event its cursor sends is where the test reads the
// hop.
func deafDifferential(t *testing.T, eng *core.Engine, pairs []srcDst) deafStats {
	st := deafStats{pairs: len(pairs)}
	bg := context.Background()
	deaf := observe(eng).Counter("engine_rr_deaf_skipped_total")
	closeStage := func(src measure.Agent, hop ipv4.Addr, salt uint64) {
		reqs := []probe.Request{{Kind: measure.KindRR, VP: src, Dst: hop, Seq: salt}}
		if pfx, ok := eng.F.Topo.BGPPrefixOf(hop); ok {
			far, _ := eng.Verdicts(hop)
			for _, si := range eng.Ingress.PlanFor(pfx, eng.Opts.VPSelection).Order {
				if vp := eng.Sites[si]; vp.Addr != src.Addr && !slices.Contains(far, vp.Addr) && len(reqs) <= core.SpoofBatchSize {
					reqs = append(reqs, probe.Request{Kind: measure.KindSpoofedRR, VP: vp, Src: src.Addr, Dst: hop, Seq: salt})
				}
			}
		}
		// The direct probe and the round's lead, then its hedges if neither
		// revealed: the round as the engine sends it.
		reveals := 0
		for _, part := range [][]probe.Request{reqs[:min(2, len(reqs))], reqs[min(2, len(reqs)):]} {
			if reveals > 0 || len(part) == 0 {
				break
			}
			for _, rep := range eng.Pool.Do(bg, part).Replies {
				if rep.RR.Responded {
					st.answered++
					reveals += btoi(len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > 0)
				}
			}
			st.sent += len(part)
		}
		st.closed++
		st.revealed += reveals
		st.stagesRevealed += btoi(reveals > 0)
	}
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		seen := deaf.Value()
		mm.SetSink(func(ev stream.Event) {
			if ev.Kind == stream.KindFallback && deaf.Value() != seen {
				seen = deaf.Value()
				closeStage(pr.src.Agent, mm.Cursor(), mm.Salt())
			}
		})
		for p := mm.Next(); p != nil; p = mm.Next() {
			mm.Deliver(eng.ExecPending(mm.Context(), p))
		}
		if seen != deaf.Value() {
			t.Fatalf("%s→%s: a closed stage sent no fallback event", pr.src.Agent.Addr, pr.dst)
		}
	}
	return st
}

// TestDeafASDifferential prices the RR stages the atlas's deaf ASes close.
// At every one the test sends the direct probe and the first spoofed round
// of the stage's plan and records how many drew a reply and would have
// revealed a hop — the stage's first round, not the sweep a reply would
// have kept going. On clean plans at most 5 % of the closed stages may
// have revealed one. The small worlds may close no stage; the benchmark's
// must exercise the rule. What it costs in completions is TestRuleLedger's
// "RR-deaf ASes" row.
func TestDeafASDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %6s %9s %9s %7s", "plan", "pairs", "closed", "sent", "answered", "revealed", "stages")
	var clean deafStats
	row := func(name string, st deafStats) {
		t.Logf("%-14s %6d %6d %6d %9d %9d %7d", name, st.pairs, st.closed, st.sent, st.answered, st.revealed, st.stagesRevealed)
	}
	report := func(name string, isClean bool, st deafStats) {
		row(name, st)
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
		eng, _ := c.engine(1, probe.RetryPolicy{})
		report(fmt.Sprintf("seed%d/clean", seed), true, deafDifferential(t, eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), false, deafDifferential(t, eng, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		st := deafDifferential(t, d.Engine(core.Revtr20Options()), pairs)
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
