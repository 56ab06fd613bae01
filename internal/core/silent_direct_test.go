package core_test

// The differential for the silent direct probe's rule: with no retry to
// spend, an RR stage whose direct probe drew silence ends there instead of
// re-asking the hop from a spoofed round, and it is priced by sending the
// round the engine did not; with retries the direct probe goes out once, the
// round being its retry, and it is priced by sending the retries withheld.

import (
	"context"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// forwardFiltered reports whether an option packet from src to hop enters,
// on one of eight flows, an AS that drops transiting option packets
// (topology.AS.FiltersOptions), as the fabric's walk does.
func forwardFiltered(f *fabric.Fabric, src, hop ipv4.Addr) bool {
	h, ok := f.Topo.HostOf(src)
	if !ok {
		return false
	}
	for flow := uint64(0); flow < 8; flow++ {
		path := f.ForwardRouterPath(h.Router, hop, src, flow)
		for i := 1; i < len(path); i++ {
			as := f.Topo.Routers[path[i]].AS
			if as != f.Topo.Routers[path[i-1]].AS && f.Topo.ASes[as].FiltersOptions {
				return true
			}
		}
	}
	return false
}

// directStats is one row of the differential's table: the closes that had
// a round to send, the rounds not sent that drew a reply, and those whose
// hop the source's option packets reach — a reply there is a cost the
// rule's reason does not explain; and the rounds the atlas kept on the wire
// behind a silent direct probe, and those of them that drew a reply.
type directStats struct{ pairs, closed, answered, unexplained, kept, keptAnswered int }

// silentDirectDifferential measures pairs on eng, which must not retry, and
// every time a direct probe's delivery closed a stage that neither the
// cache's verdict nor the survey's silence had settled, sends the round not
// sent. A round the machine sent right behind a silent direct probe is one
// the atlas kept.
func silentDirectDifferential(eng *core.Engine, pairs []srcDst) directStats {
	st := directStats{pairs: len(pairs)}
	bg := context.Background()
	closes := observe(eng).Counter("engine_spoof_sweeps_unresponsive_total")
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		var silentHop ipv4.Addr // the last direct probe's, if it drew silence
		for p := mm.Next(); p != nil; p = mm.Next() {
			d := eng.ExecPending(mm.Context(), p)
			if isSpoofSweep(p) && !p.Hedges && p.Reqs[0].Dst == silentHop {
				st.kept++
				st.keptAnswered += btoi(slices.ContainsFunc(d.Batch.Replies, func(r measure.Reply) bool { return r.RR.Responded }))
			}
			silentHop = 0
			settled := true // only a direct probe's delivery closes a stage
			if isDirectRR(p) {
				_, settled = eng.Verdicts(p.Reqs[0].Dst)
				settled = settled || eng.Ingress.Silent(p.Reqs[0].Dst)
				if rep := d.Batch.Replies[0]; rep.Sent && !rep.RR.Responded {
					silentHop = p.Reqs[0].Dst
				}
			}
			before := closes.Value()
			mm.Deliver(d)
			if closes.Value() == before || settled {
				continue
			}
			hop := p.Reqs[0].Dst
			sent, heard, _ := sendUnsent(eng, pr.src.Agent, hop, p.Reqs[0].Seq)
			st.closed += btoi(sent)
			st.answered += btoi(heard)
			st.unexplained += btoi(heard && !forwardFiltered(eng.F, pr.src.Agent.Addr, hop))
		}
	}
	return st
}

// TestSilentDirectDifferential prices the silent direct probe's close
// (DESIGN "RR stage", row 9). The replies to a spoofed round come home to
// the source by the path the direct probe's reply would have taken, so the
// round can rescue only a hop the source's own option packets do not reach:
// one behind a transit AS that filters options on the forward path. Every
// close the test finds, it sends the round the engine did not, on the rule
// ledger's three clean worlds and the differentials' slice of the
// benchmark's; each round that draws a reply must be of that kind. Where the
// source's atlas saw a hop of the AS answer a spoofed ping and not its own,
// the rule keeps the round, and the test counts those. The lossy column is
// lossyDirectDifferential's.
func TestSilentDirectDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 1000-AS worlds")
	}
	t.Logf("%-10s %6s %6s %9s %12s | %5s %9s", "world", "pairs", "closed", "answered", "unexplained", "kept", "answered")
	report := func(name string, st directStats) {
		t.Logf("%-10s %6d %6d %9d %12d | %5d %9d", name, st.pairs, st.closed, st.answered, st.unexplained, st.kept, st.keptAnswered)
		if st.closed == 0 {
			t.Errorf("%s: the rule closed no stage with a round to send: the world exercises nothing", name)
		}
		if st.unexplained > 0 {
			t.Errorf("%s: %d rounds the rule kept off the wire drew a reply from a hop the source's option packets reach", name, st.unexplained)
		}
	}
	for _, col := range ledgerColumns {
		if !col.lossy {
			w := worldOf(col.seed, col.vintage)
			report(col.name, silentDirectDifferential(w.d.Engine(core.Revtr20Options()), w.wide()))
		}
	}
	d, pairs := benchSlice()
	report("bench", silentDirectDifferential(d.Engine(core.Revtr20Options()), pairs))
	for _, col := range ledgerColumns {
		if col.lossy {
			lossyDirectDifferential(t, col)
		}
	}
}

// How an RR stage behind a direct probe sent once that drew silence ended.
const (
	endRevealed    = iota // a round revealed hops
	endVerdict            // closed on the shared silent verdict or the survey's silence (rows 7–8)
	endSilentBatch        // closed on a silent round (row 12)
	endOther              // fell back otherwise: a round answered with no hop, no vantage point left, the budget
	numEnds
)

// onceStats is the lossy row of the differential: the direct probes the rule
// sent once that drew silence, those at a hop ground truth says answers the
// source's option packets, and those whose withheld retries drew a reply, by
// how the stage then ended.
type onceStats struct {
	silent, truth, unexplained int // the last: caught at a hop that does not answer the source
	caught                     [numEnds]int
}

// pairMarks is what one pair's measurement met that can move its outcome:
// stages closed on a shared silent verdict or the survey's silence at a hop
// that answers the source's option packets, and direct probes sent once
// whose withheld retry drew a reply where the stage then revealed nothing.
type pairMarks struct {
	falseSilence, missed int
	hop                  ipv4.Addr // the last such close's
}

// answersSource reports whether ground truth has hop answer src's option
// packets: no option filter on the way there (forwardFiltered) or home, in
// the hop's AS or at its router (deafWhy). Silence there is loss or a rate
// limit.
func answersSource(f *fabric.Fabric, src, hop ipv4.Addr) bool {
	return !forwardFiltered(f, src, hop) && deafWhy(f, hop, src) == deafOther
}

// withheldAnswer sends on the side, through measure.Issue so that the pool's
// ledger does not see them, the retries the pool would have sent after req,
// issued at nowUS, drew silence — at its backoff, so they meet the faults
// they would have met — and reports whether one drew a reply.
func withheldAnswer(eng *core.Engine, req probe.Request, nowUS int64) bool {
	var delayUS int64
	for a := 1; a <= eng.Pool.Retry().Max; a++ {
		delayUS += probe.DefaultBackoffUS << (a - 1)
		rep := measure.Issue(eng.F, req, nowUS+delayUS)
		if !rep.Sent || rep.RR.Responded {
			return rep.RR.Responded
		}
	}
	return false
}

// lossyDirect measures pairs on eng, whose pool retries, and prices every
// direct probe the rule sent once that drew silence by its withheld retries.
// A stage that closes falls back at once, so the fallback event its cursor
// sends is where the test reads the close: rows 7–9 count
// engine_spoof_sweeps_unresponsive_total, row 12
// engine_spoof_sweeps_silent_total. A stage that never falls back revealed.
func lossyDirect(eng *core.Engine, pairs []srcDst) (onceStats, []pairMarks, []*core.Result) {
	var st onceStats
	marks := make([]pairMarks, len(pairs))
	results := make([]*core.Result, len(pairs))
	reg := observe(eng)
	verdicts, silentRounds := reg.Counter("engine_spoof_sweeps_unresponsive_total"), reg.Counter("engine_spoof_sweeps_silent_total")
	for i, pr := range pairs {
		src := pr.src.Agent.Addr
		var open struct {
			hop    ipv4.Addr // of the stage behind a direct probe sent once that drew silence
			caught bool      // a withheld retry drew a reply
		}
		settle := func(end int) {
			if !open.hop.IsZero() && open.caught {
				st.caught[end]++
				marks[i].missed += btoi(end != endRevealed)
			}
			open.hop = 0
		}
		vSeen, sSeen := verdicts.Value(), silentRounds.Value()
		mm := eng.Begin(context.Background(), pr.src, pr.dst)
		mm.SetSink(func(ev stream.Event) {
			if ev.Kind != stream.KindFallback {
				return
			}
			v, s, end := verdicts.Value(), silentRounds.Value(), endOther
			switch {
			case v != vSeen:
				end = endVerdict
				if answersSource(eng.F, src, mm.Cursor()) {
					marks[i].falseSilence++
					marks[i].hop = mm.Cursor()
				}
			case s != sSeen:
				end = endSilentBatch
			}
			vSeen, sSeen = v, s
			if mm.Cursor() == open.hop {
				settle(end)
			}
		})
		for p := mm.Next(); p != nil; p = mm.Next() {
			nowUS := eng.Pool.Now()
			d := eng.ExecPending(mm.Context(), p)
			if rep := d.Batch.Replies; isDirectRR(p) && p.Once && rep[0].Sent && !rep[0].RR.Responded {
				settle(endRevealed)
				hop := p.Reqs[0].Dst
				truth := answersSource(eng.F, src, hop)
				open.hop, open.caught = hop, withheldAnswer(eng, p.Reqs[0], nowUS)
				st.silent++
				st.truth += btoi(truth)
				st.unexplained += btoi(open.caught && !truth)
			}
			mm.Deliver(d)
		}
		settle(endRevealed)
		results[i] = mm.Result()
	}
	return st, marks, results
}

// lossyDirectDifferential prices the direct probe sent once on the lossy
// column, where the pool retries: it measures the column with the rule off
// and on, reports what the retries the rule withheld would have caught, and
// attributes each pair whose outcome moved — to a stage that closed on a
// shared silent verdict or the survey's silence at a hop that answers the
// source (more of them with the rule on, or off), to a round that missed
// what a withheld retry caught, or to neither. The rule must lower packets
// per completed revtr, the trade it makes, and a withheld retry may draw a
// reply only where ground truth says the hop answers the source.
func lossyDirectDifferential(t *testing.T, col ledgerColumn) {
	w, undo, ok := col.world(t)
	defer undo()
	if !ok {
		return
	}
	pairs := w.wide()
	bit := uint16(1) << slices.Index(core.RuleNames[:], "silent direct probe")
	var st [2]onceStats
	var marks [2][]pairMarks
	var res [2][]*core.Result
	for i, off := range []uint16{bit, 0} {
		eng := w.d.Engine(core.Revtr20Options())
		eng.SetRulesOff(off)
		st[i], marks[i], res[i] = lossyDirect(eng, pairs)
	}
	on := st[1]
	c := on.caught
	t.Logf("%s: %d direct probes sent once drew silence, %d at a hop that answers the source; "+
		"a withheld retry drew a reply at %d: %d stages then revealed, %d closed on a verdict or the survey, %d on a silent round, %d otherwise",
		col.name, on.silent, on.truth, c[endRevealed]+c[endVerdict]+c[endSilentBatch]+c[endOther],
		c[endRevealed], c[endVerdict], c[endSilentBatch], c[endOther])
	if st[0].silent != 0 || on.silent == 0 {
		t.Errorf("%s: %d silent direct probes sent once with the rule off, %d on: want none, and some", col.name, st[0].silent, on.silent)
	}
	if on.unexplained > 0 {
		t.Errorf("%s: %d withheld retries drew a reply from a hop that does not answer the source", col.name, on.unexplained)
	}
	var perCompleted [2]float64
	for i := range res {
		packets, complete := uint64(0), 0
		for _, r := range res[i] {
			packets += r.Probes.RR + r.Probes.SpoofRR + r.Probes.Traceroute
			complete += btoi(r.Status == core.StatusComplete)
		}
		perCompleted[i] = float64(packets) / float64(complete)
		t.Logf("%s, rule %-3s %5d packets, %3d complete: %.3f packets per completed revtr",
			col.name, []string{"off", "on"}[i], packets, complete, perCompleted[i])
	}
	if perCompleted[1] >= perCompleted[0] {
		t.Errorf("%s: the rule costs more packets per completed revtr than it saves: %.3f, %.3f with it off", col.name, perCompleted[1], perCompleted[0])
	}
	var moved [2][4]int // lost and gained completions, by cause
	causes := [4]string{"false silence, rule on", "missed retry", "false silence, rule off", "other"}
	for i, pr := range pairs {
		was, is := res[0][i].Status, res[1][i].Status
		if was == is {
			continue
		}
		cause := 3
		switch off, on := marks[0][i], marks[1][i]; {
		case on.falseSilence > off.falseSilence:
			cause = 0
		case on.missed > 0:
			cause = 1
		case off.falseSilence > on.falseSilence:
			cause = 2
		}
		if was == core.StatusComplete || is == core.StatusComplete {
			moved[btoi(is == core.StatusComplete)][cause]++
		}
		t.Logf("%s: %s→%s %s → %s: %s (at %s)", col.name, pr.src.Agent.Addr, pr.dst, was, is, causes[cause], marks[1][i].hop)
	}
	for k, name := range [2]string{"lost", "gained"} {
		t.Logf("%s: completions %s: %d false silence with the rule on, %d missed retry, %d false silence with it off, %d other",
			col.name, name, moved[k][0], moved[k][1], moved[k][2], moved[k][3])
	}
}

// TestDirectProbeOnce: under an ingress plan with retries to spend, the RR
// stage's direct probe goes out once (Pending.Once) — the round behind it is
// its retry — so a silent hop puts one RR packet on the wire; a round's lead
// keeps the pool's retries. Set-cover and global plans, the rule off and no
// retry budget leave the direct probe to the pool's policy.
func TestDirectProbeOnce(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	bit := uint16(1) << slices.Index(core.RuleNames[:], "silent direct probe")
	for _, tc := range []struct {
		name string
		sel  ingress.Selection
		off  uint16
		max  int
		once bool
	}{
		{"ingress, two retries", ingress.SelIngress, 0, 2, true},
		{"ingress, no retries", ingress.SelIngress, 0, 0, false},
		{"set cover, two retries", ingress.SelSetCover, 0, 2, false},
		{"global, two retries", ingress.SelGlobal, 0, 2, false},
		{"the rule off, two retries", ingress.SelIngress, bit, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := core.Revtr20Options()
			o.VPSelection = tc.sel
			eng, _ := c.engineOpts(1, probe.RetryPolicy{Max: tc.max}, o)
			eng.SetRulesOff(tc.off)
			silent, leads := 0, 0
			for _, dst := range c.dsts {
				driveSeeing(context.Background(), eng, c.src, dst, func(p *core.Pending, d core.Delivery) {
					if isSpoofSweep(p) && !p.Hedges {
						leads++
						if p.Once {
							t.Errorf("%s: a round's lead sent once", p.Reqs[0].Dst)
						}
					}
					if !isDirectRR(p) {
						return
					}
					if p.Once != tc.once {
						t.Errorf("%s: direct RR probe sent once %v, want %v", p.Reqs[0].Dst, p.Once, tc.once)
					}
					if rep := d.Batch.Replies[0]; rep.Sent && !rep.RR.Responded {
						silent++
						want := uint64(1 + tc.max)
						if tc.once {
							want = 1
						}
						if d.Batch.Sent.RR != want {
							t.Errorf("%s: a silent direct probe put %d RR packets on the wire, want %d", p.Reqs[0].Dst, d.Batch.Sent.RR, want)
						}
					}
				})
			}
			if silent == 0 || leads == 0 {
				t.Fatalf("%d silent direct probes, %d leads: the row exercises nothing", silent, leads)
			}
		})
	}
}
