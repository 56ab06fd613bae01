package core_test

// The differential for the spoofed round: a batch sent lead first, its
// hedges held back unless the lead reveals nothing. It prices the rule by
// sending, at every lead that revealed, the hedges the engine held back.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// roundStats is one row of the differential's table: the leads that
// revealed and left hedges unsent, and how many of those hedges the test
// then sent would have revealed a longer path.
type roundStats struct{ pairs, leads, longer int }

// roundDifferential measures pairs on eng, and every round whose lead
// revealed and left hedges unsent has the test send those hedges — the
// Specs the engine held, salt included — and compare the longest path they
// reveal with the longest the round revealed.
func roundDifferential(eng *core.Engine, pairs []srcDst) roundStats {
	st := roundStats{pairs: len(pairs)}
	bg := context.Background()
	for _, pr := range pairs {
		var hop ipv4.Addr
		var unsent []probe.Request // the last round's hedges the engine did not send
		best := 0                  // the longest path that round revealed
		flush := func() {
			if len(unsent) == 0 {
				return
			}
			longer := false
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
	}
	return st
}

// TestLeadHedgeDifferential prices the spoofed round. At every lead that
// revealed, the test sends the hedges the engine left unsent and records
// whether one would have revealed a longer path — the path a whole batch
// adopts. On clean plans at most 10 % of those leads may have had one. What
// the rule costs in completions and wrong paths is TestRuleLedger's
// "spoofed rounds" row.
func TestLeadHedgeDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %7s", "plan", "pairs", "leads", "longer")
	var clean roundStats
	report := func(name string, isClean bool, st roundStats) {
		t.Logf("%-14s %6d %6d %7d", name, st.pairs, st.leads, st.longer)
		if st.leads == 0 {
			t.Errorf("%s: no lead revealed with hedges held: the plan exercises nothing", name)
		}
		if isClean {
			clean.pairs += st.pairs
			clean.leads += st.leads
			clean.longer += st.longer
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
		report(fmt.Sprintf("seed%d/clean", seed), true, roundDifferential(eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), false, roundDifferential(eng, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		report("bench/clean", true, roundDifferential(d.Engine(core.Revtr20Options()), pairs))

		defer d.Fabric.SetFaults(nil) // the world benchSlice built has none
		defer d.Pool.SetRetry(d.Pool.Retry())
		if _, err := d.InjectFaults("seed=31,loss=0.02,icmp-frac=0.3,icmp-pass=0.5", 3, 0, 2); err != nil {
			t.Fatal(err)
		}
		report("bench/lossy", false, roundDifferential(d.Engine(core.Revtr20Options()), pairs))
	}
	t.Logf("%-14s %6d %6d %7d", "clean, total", clean.pairs, clean.leads, clean.longer)
	if clean.longer*10 > clean.leads {
		t.Errorf("%d of the %d leads that revealed on clean plans held back a hedge that would have revealed a longer path, want <= 10 %%",
			clean.longer, clean.leads)
	}
}
