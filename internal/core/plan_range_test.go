package core_test

// The differential for the ingress plan's range rule: a site the survey
// saw more than InRangeHops from a prefix is not in that prefix's plan.
// It prices the rule by sending, at every spoofed sweep, the pings the
// rule kept out of the sweep's plan.

import (
	"context"
	"fmt"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// rangeStats is one row of the differential's table: the sweeps watched
// (empty ones included), those whose plan the rule emptied, and the pings
// the rule dropped from them — sent by the test — with how many drew a
// reply and would have revealed a reverse hop.
type rangeStats struct {
	pairs, sweeps, emptied, sent, answered, revealed int
}

func (a *rangeStats) add(b rangeStats) {
	a.pairs += b.pairs
	a.sweeps += b.sweeps
	a.emptied += b.emptied
	a.sent += b.sent
	a.answered += b.answered
	a.revealed += b.revealed
}

// outOfRangeSites is what the rule took out of info's plan: the sites
// within MaxFallbacksPerIngress of each ingress's head whose survey
// distance is past InRangeHops.
func outOfRangeSites(info *ingress.PrefixInfo) []int {
	if info == nil {
		return nil
	}
	var out []int
	for _, ing := range info.Ingresses {
		for depth, si := range ing.Sites {
			if depth < ingress.MaxFallbacksPerIngress && info.Obs[si].Dist > ingress.InRangeHops {
				out = append(out, si)
			}
		}
	}
	return out
}

// planRangeDifferential measures pairs on eng and, at every spoofed sweep,
// sends the pings the rule dropped from its plan. A sweep is set up behind
// a direct probe that revealed nothing and behind a skipped direct probe,
// unless the stage closed on a silent hop (no batch went out under either
// rule); a sweep whose plan the rule emptied sends no batch, so those two
// are read off the machine's books, not off its batches.
func planRangeDifferential(eng *core.Engine, pairs []srcDst) rangeStats {
	reg := observe(eng)
	skipped, unresp := reg.Counter("engine_rr_direct_skipped_total"), reg.Counter("engine_spoof_sweeps_unresponsive_total")
	st := rangeStats{pairs: len(pairs)}
	seq := uint64(1) << 32 // clear of every measurement's own numbers
	swept := func(src, hop ipv4.Addr, batched bool) {
		pfx, ok := eng.F.Topo.BGPPrefixOf(hop)
		if !ok {
			return
		}
		st.sweeps++
		if !batched && len(eng.Ingress.PlanFor(pfx, eng.Opts.VPSelection).Order) == 0 {
			st.emptied++
		}
		for _, si := range outOfRangeSites(eng.Ingress.Info[pfx]) {
			vp := eng.Sites[si]
			if vp.Addr == src {
				continue
			}
			seq++
			rep := eng.Pool.Do(context.Background(), []probe.Request{
				{Kind: measure.KindSpoofedRR, VP: vp, Src: src, Dst: hop, Seq: seq},
			}).Replies[0]
			st.sent++
			if rep.RR.Responded {
				st.answered++
				st.revealed += btoi(len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > 0)
			}
		}
	}
	for _, pr := range pairs {
		me := pr.src.Agent.Addr
		mm := eng.Begin(context.Background(), pr.src, pr.dst)
		var behind ipv4.Addr // the hop of a direct probe that set a sweep up, until the next step shows it
		for {
			skipBefore, unrespBefore := skipped.Value(), unresp.Value()
			p := mm.Next()
			sweepOn := func(hop ipv4.Addr) {
				swept(me, hop, p != nil && isSpoofSweep(p) && p.Reqs[0].Dst == hop)
			}
			if behind != 0 {
				sweepOn(behind)
				behind = 0
			}
			if skipped.Value() != skipBefore && unresp.Value() == unrespBefore {
				if p != nil && isSpoofSweep(p) {
					sweepOn(p.Reqs[0].Dst)
				} else {
					sweepOn(mm.Cursor())
				}
			}
			if p == nil {
				break
			}
			d := eng.ExecPending(mm.Context(), p)
			unrespBefore = unresp.Value()
			mm.Deliver(d)
			if isDirectRR(p) && unresp.Value() == unrespBefore {
				hop, rr := p.Reqs[0].Dst, d.Batch.Replies[0].RR
				if !rr.Responded || len(core.ExtractReverse(rr.Recorded, hop, eng.Alias)) == 0 {
					behind = hop
				}
			}
		}
	}
	return st
}

// TestPlanRangeDifferential prices the plan's range rule. At every spoofed
// sweep — one the rule left without a batch to send included — the test
// sends the spoofed pings the rule dropped, from every such site of the
// prefix's ingresses, not just the few a sweep would have reached before
// its budget, its first silent batch or a revelation ended it; and
// records how many drew a reply and would have revealed a hop. On clean
// plans at most 2 % of them may reveal one; the faulty plans are
// reported.
func TestPlanRangeDifferential(t *testing.T) {
	t.Logf("%-14s %6s %7s %8s %6s %9s %9s", "plan", "pairs", "sweeps", "emptied", "sent", "answered", "revealed")
	var clean rangeStats
	row := func(name string, st rangeStats) {
		t.Logf("%-14s %6d %7d %8d %6d %9d %9d", name, st.pairs, st.sweeps, st.emptied, st.sent, st.answered, st.revealed)
	}
	report := func(name string, isClean bool, st rangeStats) {
		row(name, st)
		if st.sent == 0 {
			t.Errorf("%s: no sweep's plan lost a site to the rule: the plan exercises nothing", name)
		}
		if isClean {
			clean.add(st)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 150)
		var pairs []srcDst
		for _, dst := range c.dsts {
			pairs = append(pairs, srcDst{c.src, dst})
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		report(fmt.Sprintf("seed%d/clean", seed), true, planRangeDifferential(eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), false, planRangeDifferential(eng, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		report("bench/clean", true, planRangeDifferential(d.Engine(core.Revtr20Options()), pairs))
	}
	row("clean, total", clean)
	if clean.revealed*50 > clean.sent {
		t.Errorf("the range rule dropped %d pings that reveal a hop of the %d it dropped on clean plans, want <= 2%%",
			clean.revealed, clean.sent)
	}
}
