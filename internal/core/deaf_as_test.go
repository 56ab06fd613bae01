package core_test

// The differential for the RR-deaf ASes: a cursor in an AS from which the
// source's atlas heard no RR reply come home, or its own silent rounds
// found deaf, opens no RR stage. It prices each rule by sending, at every
// stage the rule closed, the direct probe and the first spoofed round the
// stage would have opened with.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// deafStats is one row of the differential's table: the RR stages the rule
// closed; the probes the test then sent itself, how many drew a reply and
// how many would have revealed a hop; and the stages one of them would have
// revealed a hop at. why splits the ASes (per source) the rule closed
// stages in by ground truth (deafWhy).
type deafStats struct {
	pairs, closed, sent, answered, revealed, stagesRevealed int
	why                                                     [deafHome + 1]int
}

func (a *deafStats) add(b deafStats) {
	a.pairs += b.pairs
	a.closed += b.closed
	a.sent += b.sent
	a.answered += b.answered
	a.revealed += b.revealed
	a.stagesRevealed += b.stagesRevealed
	for k, n := range b.why {
		a.why[k] += n
	}
}

// What ground truth says silenced a hop toward a source, weakest first.
const (
	deafOther   = iota // nothing: the hop answers, and so does the way home
	deafMute           // the hop's router answers no option packet
	deafIngress        // the hop's own AS drops every option packet entering it
	deafHome           // the path home enters an AS that drops option packets
)

// deafWhy explains the silence of hop toward src as atlas's
// TestRRDeafGroundTruth does: the path home from the hop (one flow), the
// hop's AS, the hop's router.
func deafWhy(f *fabric.Fabric, hop, src ipv4.Addr) int {
	topo := f.Topo
	r, ok := topo.RouterOf(hop)
	if !ok {
		return deafOther
	}
	path := f.ForwardRouterPath(r, src, hop, 0)
	for i := 1; i < len(path); i++ {
		if as := topo.Routers[path[i]].AS; as != topo.Routers[path[i-1]].AS && topo.ASes[as].FiltersOptions {
			return deafHome
		}
	}
	switch {
	case topo.ASes[topo.Routers[r].AS].FiltersOptions:
		return deafIngress
	case !topo.Routers[r].RespondsToOptions:
		return deafMute
	}
	return deafOther
}

// deafDifferential measures pairs on eng, and every RR stage a deaf AS
// closes has the test send the stage's direct probe and the first round of
// its plan — sites as nextBatch picks them, the lead beside the direct
// probe and the hedges if neither revealed — through the engine's pool,
// salted as the machine's own. A closed stage falls back at once, so the
// fallback event its cursor sends is where the test reads the hop. It
// returns the atlas's closes (engine_rr_deaf_skipped_total) and the learned
// ones (engine_rr_deaf_learned_total), each AS of the latter under the
// weakest explanation of the hops it closed a stage at.
func deafDifferential(t *testing.T, eng *core.Engine, pairs []srcDst) (atlasRow, learnedRow deafStats) {
	atlasRow.pairs, learnedRow.pairs = len(pairs), len(pairs)
	bg := context.Background()
	reg := observe(eng)
	atlasDeaf, learnedDeaf := reg.Counter("engine_rr_deaf_skipped_total"), reg.Counter("engine_rr_deaf_learned_total")
	why := map[[2]uint32]int{} // by source and AS, of the learned closes
	closeStage := func(st *deafStats, src measure.Agent, hop ipv4.Addr, salt uint64) {
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
		atlasSeen, learnedSeen := atlasDeaf.Value(), learnedDeaf.Value()
		mm.SetSink(func(ev stream.Event) {
			a, l := atlasDeaf.Value(), learnedDeaf.Value()
			if ev.Kind != stream.KindFallback || a == atlasSeen && l == learnedSeen {
				return
			}
			if a-atlasSeen+l-learnedSeen > 1 {
				t.Fatalf("%s→%s: two stages closed between fallback events", pr.src.Agent.Addr, pr.dst)
			}
			st, hop := &atlasRow, mm.Cursor()
			if l != learnedSeen {
				st = &learnedRow
				asn, _ := eng.Mapper.ASOf(hop)
				key := [2]uint32{uint32(pr.src.Agent.Addr), uint32(asn)}
				if w, ok := why[key]; !ok || deafWhy(eng.F, hop, pr.src.Agent.Addr) < w {
					why[key] = deafWhy(eng.F, hop, pr.src.Agent.Addr)
				}
			}
			atlasSeen, learnedSeen = a, l
			closeStage(st, pr.src.Agent, hop, mm.Salt())
		})
		for p := mm.Next(); p != nil; p = mm.Next() {
			mm.Deliver(eng.ExecPending(mm.Context(), p))
		}
		if atlasSeen != atlasDeaf.Value() || learnedSeen != learnedDeaf.Value() {
			t.Fatalf("%s→%s: a closed stage sent no fallback event", pr.src.Agent.Addr, pr.dst)
		}
	}
	for _, k := range why {
		learnedRow.why[k]++
	}
	return atlasRow, learnedRow
}

// TestDeafASDifferential prices the RR stages the deaf ASes close, the
// atlas's (atlas.RRDeaf) and those the source's own silent rounds found deaf
// (the learned, factDeaf) in rows of their own. At every one the test sends
// the direct probe and the first spoofed round of the stage's plan and
// records how many drew a reply and would have revealed a hop — the stage's
// first round, not the sweep a reply would have kept going. On clean plans
// at most 5 % of either rule's closed stages may have revealed one. The
// small worlds may close no stage; the benchmark's must exercise both
// rules. A learned row also splits its ASes by what ground truth says
// silenced them (deafWhy), as atlas's TestRRDeafGroundTruth splits the
// atlas's. What the rules cost in completions is TestRuleLedger's
// "RR-deaf ASes" and "learned deafness" rows.
func TestDeafASDifferential(t *testing.T) {
	t.Logf("%-22s %6s %6s %6s %9s %9s %7s | %5s %7s %5s %6s", "plan", "pairs", "closed", "sent", "answered", "revealed", "stages",
		"home", "ingress", "mute", "other")
	var clean [2]deafStats // atlas, learned
	row := func(name string, st deafStats) {
		t.Logf("%-22s %6d %6d %6d %9d %9d %7d | %5d %7d %5d %6d", name, st.pairs, st.closed, st.sent, st.answered, st.revealed,
			st.stagesRevealed, st.why[deafHome], st.why[deafIngress], st.why[deafMute], st.why[deafOther])
	}
	report := func(name string, isClean bool, atlasRow, learnedRow deafStats) {
		row(name+" atlas", atlasRow)
		row(name+" learned", learnedRow)
		if isClean {
			clean[0].add(atlasRow)
			clean[1].add(learnedRow)
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
		a, l := deafDifferential(t, eng, pairs)
		report(fmt.Sprintf("seed%d/clean", seed), true, a, l)

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		a, l = deafDifferential(t, eng, pairs)
		report(fmt.Sprintf("seed%d/faulty", seed), false, a, l)
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		a, l := deafDifferential(t, d.Engine(core.Revtr20Options()), pairs)
		report("bench/clean", true, a, l)
		if a.closed == 0 || l.closed == 0 {
			t.Errorf("bench/clean: %d RR stages closed on the atlas's deaf ASes, %d on learned ones: the slice exercises too little", a.closed, l.closed)
		}
	}
	for i, name := range []string{"atlas", "learned"} {
		st := clean[i]
		row("clean, total "+name, st)
		if st.stagesRevealed*20 > st.closed {
			t.Errorf("%d of the %d RR stages closed on %s deaf ASes would have revealed a hop on clean plans, want <= 5%%",
				st.stagesRevealed, st.closed, name)
		}
	}
}
