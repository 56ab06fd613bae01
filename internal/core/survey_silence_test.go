package core_test

// The differential for the rule that reads the ingress survey's silence: an
// RR stage whose hop no site's survey ping reached ends at the unanswered
// direct probe instead of waiting out a spoofed batch. It prices the rule
// by sending the batch the engine did not, and holds every path to the one
// an engine blind to the survey's silence measures.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// surveyStats is one row of the differential's table: the RR stages the
// survey's silence closed, how many of the batches not sent — sent by the
// test — drew a reply at all and would have revealed a hop, and what the
// closes saved against the blind engine.
type surveyStats struct {
	pairs, closed, answered, revealed int
	spoofRR                           uint64 // spoofed packets not sent
	batches                           int
	waitUS                            int64 // virtual time not waited
}

// sendUnsent puts on the wire the batch a sweep on hop would have opened
// with — the first SpoofBatchSize vantage points of its plan, less the
// source and those out of range of hop — with sequence numbers of the
// test's own, and reads the replies the engine's way. sent is false where
// the plan left no batch to send.
func sendUnsent(eng *core.Engine, src measure.Agent, hop ipv4.Addr, seq *uint64) (sent, answered, revealed bool) {
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
		*seq++
		batch = append(batch, probe.Request{Kind: measure.KindSpoofedRR, VP: site, Src: src.Addr, Dst: hop, Seq: *seq})
	}
	for _, rep := range eng.Pool.Do(context.Background(), batch).Replies {
		if rep.RR.Responded {
			answered = true
			revealed = revealed || len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > 0
		}
	}
	return len(batch) > 0, answered, revealed
}

// surveyDifferential measures pairs on a fresh engine from newEngine and,
// every time a direct probe's delivery closed a stage the cache's verdict
// had not settled, sends the batch not sent (closed counts the stages that
// had one: a plan with no vantage point left in it sends nothing either
// way). Then it measures the same pairs on a fresh engine blind to the
// survey's silence and holds each pair to it: Status, hop list, Record
// Route and traceroute packets identical; spoofed packets, batches and
// virtual time no more.
func surveyDifferential(t *testing.T, name string, newEngine func() *core.Engine, pairs []srcDst) surveyStats {
	st := surveyStats{pairs: len(pairs)}
	bg := context.Background()
	seq := uint64(1) << 32 // clear of every measurement's own numbers

	eng := newEngine()
	closed := observe(eng).Counter("engine_spoof_sweeps_unresponsive_total")
	results := make([]*core.Result, len(pairs))
	for i, pr := range pairs {
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
				sent, answered, revealed := sendUnsent(eng, pr.src.Agent, p.Reqs[0].Dst, &seq)
				st.closed += btoi(sent)
				st.answered += btoi(answered)
				st.revealed += btoi(revealed)
			}
		}
		results[i] = mm.Result()
	}

	blind := newEngine()
	blind.HideSurveySilence()
	for i, pr := range pairs {
		got, want := results[i], blind.MeasureReverse(bg, pr.src, pr.dst)
		if got.Status != want.Status || !reflect.DeepEqual(got.Hops, want.Hops) ||
			got.Probes.RR != want.Probes.RR || got.Probes.Traceroute != want.Probes.Traceroute ||
			got.Probes.SpoofRR > want.Probes.SpoofRR || got.SpoofBatches > want.SpoofBatches || got.DurationUS > want.DurationUS {
			t.Fatalf("%s %s→%s: the survey's silence changed the measurement:\n  read  %s batches=%d us=%d\n  blind %s batches=%d us=%d",
				name, pr.src.Agent.Addr, pr.dst, renderCoreResult(got), got.SpoofBatches, got.DurationUS,
				renderCoreResult(want), want.SpoofBatches, want.DurationUS)
		}
		st.spoofRR += want.Probes.SpoofRR - got.Probes.SpoofRR
		st.batches += want.SpoofBatches - got.SpoofBatches
		st.waitUS += want.DurationUS - got.DurationUS
	}
	return st
}

// TestSurveySilenceDifferential prices the survey's silence. Every stage
// it closes, the test sends the batch the engine did not: the one way the
// rule can cost a hop is a hop whose replies to every site are filtered
// while those to the source are not. That may happen in at most 1 % of
// the closes, clean and faulty plans together; every path must be the one
// the blind engine measures.
func TestSurveySilenceDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %9s %9s | %8s %8s %12s", "plan", "pairs", "closed", "answered", "revealed", "spoofRR", "batches", "virtual us")
	var total surveyStats
	report := func(name string, st surveyStats) {
		t.Logf("%-14s %6d %6d %9d %9d | %8d %8d %12d", name, st.pairs, st.closed, st.answered, st.revealed, st.spoofRR, st.batches, st.waitUS)
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
		name := fmt.Sprintf("seed%d/clean", seed)
		report(name, surveyDifferential(t, name, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			return eng
		}, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		name = fmt.Sprintf("seed%d/faulty", seed)
		report(name, surveyDifferential(t, name, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{Max: 2})
			return eng
		}, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		report("bench/clean", surveyDifferential(t, "bench/clean", func() *core.Engine { return d.Engine(core.Revtr20Options()) }, pairs))
	}
	t.Logf("%-14s %6d %6d %9d %9d", "total", total.pairs, total.closed, total.answered, total.revealed)
	if total.answered*100 > total.closed {
		t.Errorf("%d of the %d batches the survey's silence kept off the wire drew a reply, want <= 1%%", total.answered, total.closed)
	}
}
