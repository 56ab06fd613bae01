package core_test

// The differential for the spoofed round: a batch sent lead first, its
// hedges held back unless the lead reveals nothing. It prices the rule by
// sending, at every lead that revealed, the hedges the engine held back,
// and holds completions and wrong paths to the engine that sends whole
// batches.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
)

// roundStats is one row of the differential's table: the leads that
// revealed and left hedges unsent, how many of those hedges the test then
// sent would have revealed a longer path; and the completions, complete
// off-truth paths and spoofed packets of the engine against one that sends
// whole batches.
type roundStats struct {
	pairs, leads, longer    int
	complete, completeWhole int
	offTruth, offTruthWhole int
	spoofRR, spoofRRWhole   uint64
}

func (a *roundStats) add(b roundStats) {
	a.pairs += b.pairs
	a.leads += b.leads
	a.longer += b.longer
	a.complete += b.complete
	a.completeWhole += b.completeWhole
	a.offTruth += b.offTruth
	a.offTruthWhole += b.offTruthWhole
	a.spoofRR += b.spoofRR
	a.spoofRRWhole += b.spoofRRWhole
}

// offTruth reports whether res holds a hop that lies on no ground-truth
// path from its destination back to its source: eight flows are unioned,
// so that per-flow load balancing is not a wrong hop, and private and host
// addresses carry no router-level claim (counts_test.go's rule).
func offTruth(f *fabric.Fabric, topo *topology.Topology, res *core.Result) bool {
	dst, ok := topo.HostOf(res.Dst)
	if !ok {
		return false
	}
	on := map[ipv4.Addr]bool{res.Src: true}
	for flow := uint64(0); flow < 8; flow++ {
		for _, r := range f.ForwardRouterPath(dst.Router, res.Src, res.Dst, flow) {
			for _, a := range topo.Aliases(r) {
				on[a] = true
			}
		}
	}
	for _, h := range res.Hops {
		if _, isHost := topo.HostOf(h.Addr); !on[h.Addr] && !h.Addr.IsPrivate() && !isHost {
			return true
		}
	}
	return false
}

// roundDifferential measures pairs twice, each time on a fresh engine from
// newEngine. On the first, the engine as it is, every round whose lead
// revealed and left hedges unsent has the test send those hedges, with
// sequence numbers of its own, and compare the longest path they reveal
// with the longest the round revealed. The second pass measures on an
// engine that sends whole batches.
func roundDifferential(f *fabric.Fabric, topo *topology.Topology, newEngine func() *core.Engine, pairs []srcDst) roundStats {
	st := roundStats{pairs: len(pairs)}
	bg := context.Background()
	seq := uint64(1) << 32 // clear of every measurement's own numbers
	tally := func(res *core.Result, complete, wrong *int, spoofRR *uint64) {
		*spoofRR += res.Probes.SpoofRR
		if res.Status == core.StatusComplete {
			*complete++
			*wrong += btoi(offTruth(f, topo, res))
		}
	}

	eng := newEngine()
	for _, pr := range pairs {
		var hop ipv4.Addr
		var unsent []probe.Request // the last round's hedges the engine did not send
		best := 0                  // the longest path that round revealed
		flush := func() {
			if len(unsent) == 0 {
				return
			}
			longer := false
			for i := range unsent {
				seq++
				unsent[i].Seq = seq
			}
			for _, rep := range eng.Pool.Do(bg, unsent).Replies {
				longer = longer || rep.RR.Responded && len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > best
			}
			st.leads++
			st.longer += btoi(longer)
			unsent = nil
		}
		mm := eng.Begin(bg, pr.src, pr.dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			var held []probe.Request
			switch {
			case p.Hedges:
				unsent = slices.DeleteFunc(unsent, func(r probe.Request) bool {
					return slices.ContainsFunc(p.Reqs, func(s probe.Request) bool { return s.VP.Addr == r.VP.Addr })
				})
			case isSpoofSweep(p):
				flush()
				hop, best, held = p.Reqs[0].Dst, 0, slices.Clone(mm.Held())
			default:
				flush()
			}
			d := eng.ExecPending(mm.Context(), p)
			mm.Deliver(d)
			if !isSpoofSweep(p) {
				continue
			}
			for _, rep := range d.Batch.Replies {
				if rep.RR.Responded {
					best = max(best, len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)))
				}
			}
			if !p.Hedges && best > 0 {
				unsent = held // less the hedges sent next, if any
			}
		}
		flush()
		tally(mm.Result(), &st.complete, &st.offTruth, &st.spoofRR)
	}

	whole := newEngine()
	whole.WholeRounds()
	for _, pr := range pairs {
		tally(whole.MeasureReverse(bg, pr.src, pr.dst), &st.completeWhole, &st.offTruthWhole, &st.spoofRRWhole)
	}
	return st
}

// TestLeadHedgeDifferential prices the spoofed round. At every lead that
// revealed, the test sends the hedges the engine left unsent and records
// whether one would have revealed a longer path — the path a whole batch
// adopts. On clean plans at most 10 % of those leads may have had one; on
// every corpus the engine must complete no fewer paths than the one that
// sends whole batches, less 0.5 %, with at most one more complete path off
// the ground truth.
func TestLeadHedgeDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %7s | %8s %8s | %9s %9s | %8s %8s", "plan", "pairs", "leads", "longer",
		"complete", "whole", "off-truth", "whole", "spoofRR", "whole")
	var clean roundStats
	row := func(name string, st roundStats) {
		t.Logf("%-14s %6d %6d %7d | %8d %8d | %9d %9d | %8d %8d", name, st.pairs, st.leads, st.longer,
			st.complete, st.completeWhole, st.offTruth, st.offTruthWhole, st.spoofRR, st.spoofRRWhole)
	}
	report := func(name string, isClean bool, st roundStats) {
		row(name, st)
		if st.complete*1000 < st.completeWhole*995 {
			t.Errorf("%s: %d paths completed, %d sending whole batches: want no fewer, less 0.5 %%", name, st.complete, st.completeWhole)
		}
		if st.offTruth > st.offTruthWhole+1 {
			t.Errorf("%s: %d complete paths off the ground truth, %d sending whole batches: want at most one more", name, st.offTruth, st.offTruthWhole)
		}
		if st.leads == 0 {
			t.Errorf("%s: no lead revealed with hedges held: the plan exercises nothing", name)
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
		report(fmt.Sprintf("seed%d/clean", seed), true, roundDifferential(c.env.Fabric, c.env.Topo, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			return eng
		}, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		report(fmt.Sprintf("seed%d/faulty", seed), false, roundDifferential(c.env.Fabric, c.env.Topo, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{Max: 2})
			return eng
		}, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		newEngine := func() *core.Engine { return d.Engine(core.Revtr20Options()) }
		report("bench/clean", true, roundDifferential(d.Fabric, d.Topo, newEngine, pairs))

		defer d.Fabric.SetFaults(nil) // the world benchSlice built has none
		defer d.Pool.SetRetry(d.Pool.Retry())
		if _, err := d.InjectFaults("seed=31,loss=0.02,icmp-frac=0.3,icmp-pass=0.5", 3, 0, 2); err != nil {
			t.Fatal(err)
		}
		report("bench/lossy", false, roundDifferential(d.Fabric, d.Topo, newEngine, pairs))
	}
	row("clean, total", clean)
	if clean.longer*10 > clean.leads {
		t.Errorf("%d of the %d leads that revealed on clean plans held back a hedge that would have revealed a longer path, want <= 10 %%",
			clean.longer, clean.leads)
	}
}
