package core_test

// The differential for the rule that reads the ingress survey's silence: an
// RR stage whose hop no site's survey ping reached ends at the unanswered
// direct probe instead of waiting out a spoofed batch. It prices the rule
// by sending the round the engine did not.

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
)

// surveyStats is one row of the differential's table: the RR stages the
// survey's silence closed, and how many of the batches not sent — sent by
// the test — drew a reply at all and would have revealed a hop.
type surveyStats struct{ pairs, closed, answered, revealed int }

// sendUnsent puts on the wire the round a sweep on hop would have opened
// with — the first SpoofBatchSize vantage points of its plan, less the
// source and those out of range of hop, the hedges only if the lead reveals
// nothing — salted with salt, as the engine's would have been — and reads
// the replies the engine's way. sent is false where the plan left no round
// to send.
func sendUnsent(eng *core.Engine, src measure.Agent, hop ipv4.Addr, salt uint64) (sent, answered, revealed bool) {
	pfx, ok := eng.F.Topo.BGPPrefixOf(hop)
	if !ok {
		return false, false, false
	}
	far, _ := eng.Verdicts(hop)
	var batch []probe.Request
	for _, si := range eng.Ingress.PlanFor(pfx, eng.Opts.VPSelection).Order {
		site := eng.Sites[si]
		if site.Addr == src.Addr || slices.Contains(far, site.Addr) || len(batch) == core.SpoofBatchSize {
			continue
		}
		batch = append(batch, probe.Request{Kind: measure.KindSpoofedRR, VP: site, Src: src.Addr, Dst: hop, Seq: salt})
	}
	if len(batch) == 0 {
		return false, false, false
	}
	answered, revealed = sendRound(eng, batch)
	return true, answered, revealed
}

// surveyDifferential measures pairs on eng and, every time a direct probe's
// delivery closed a stage the cache's verdict had not settled, sends the
// round not sent (closed counts the stages that had one: a plan with no
// vantage point left in it sends nothing either way).
func surveyDifferential(eng *core.Engine, pairs []srcDst) surveyStats {
	st := surveyStats{pairs: len(pairs)}
	bg := context.Background()
	closed := observe(eng).Counter("engine_spoof_sweeps_unresponsive_total")
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			d := eng.ExecPending(mm.Context(), p)
			proved := true // only a direct probe's delivery closes a stage
			if isDirectRR(p) {
				_, proved = eng.Verdicts(p.Reqs[0].Dst)
			}
			before := closed.Value()
			mm.Deliver(d)
			if closed.Value() != before && !proved {
				sent, answered, revealed := sendUnsent(eng, pr.src.Agent, p.Reqs[0].Dst, p.Reqs[0].Seq)
				st.closed += btoi(sent)
				st.answered += btoi(answered)
				st.revealed += btoi(revealed)
			}
		}
	}
	return st
}

// TestSurveySilenceDifferential prices the survey's silence. Every stage
// it closes, the test sends the round the engine did not: the one way the
// rule can cost a hop is a hop whose replies to every site are filtered
// while those to the source are not. That may happen in at most 1 % of
// the closes, clean and faulty plans together. What the rule moves on the
// paths, packets and virtual time is TestRuleLedger's "survey silence" row.
func TestSurveySilenceDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %9s %9s", "plan", "pairs", "closed", "answered", "revealed")
	var total surveyStats
	report := func(name string, st surveyStats) {
		t.Logf("%-14s %6d %6d %9d %9d", name, st.pairs, st.closed, st.answered, st.revealed)
		if st.closed == 0 {
			t.Errorf("%s: the survey's silence closed no stage: the plan exercises nothing", name)
		}
		total.pairs += st.pairs
		total.closed += st.closed
		total.answered += st.answered
		total.revealed += st.revealed
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 1)
		// The survey's own destinations, as the benchmark measures: the first
		// ping-responsive host of every /24, RR-responsive or not.
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			seen := map[ipv4.Addr]bool{}
			for i := range c.env.Topo.Hosts {
				h := &c.env.Topo.Hosts[i]
				if !h.PingResponsive || seen[h.Addr.Mask(24)] || h.AS == src.Agent.AS || len(seen) == 100 {
					continue
				}
				seen[h.Addr.Mask(24)] = true
				pairs = append(pairs, srcDst{src, h.Addr})
			}
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		report(fmt.Sprintf("seed%d/clean", seed), surveyDifferential(eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), surveyDifferential(eng, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		report("bench/clean", surveyDifferential(d.Engine(core.Revtr20Options()), pairs))
	}
	t.Logf("%-14s %6d %6d %9d %9d", "total", total.pairs, total.closed, total.answered, total.revealed)
	if total.answered*100 > total.closed {
		t.Errorf("%d of the %d batches the survey's silence kept off the wire drew a reply, want <= 1%%", total.answered, total.closed)
	}
}
