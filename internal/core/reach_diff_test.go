package core_test

// The differential for the reach memo: a round led by the site whose own
// replies reached the hop's AS in the fewest Record Route slots, and a hedge
// held back behind a lead that revealed when that site's replies needed more
// slots than the lead's reply took. It prices the rule by sending every hedge
// the memo held back, and reads what the new lead does to the load on the
// busiest vantage point.

import (
	"context"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
)

// reachStats is one row of the differential: the leads that revealed with a
// hedge the memo held back, those hedges, and how many of them the test then
// sent revealed a longer path than their lead.
type reachStats struct{ pairs, leads, held, longer int }

// reachDifferential measures pairs on eng, and at every lead that revealed
// has the test send the hedges the memo held back — those unsent whose reach
// into the hop's AS is more slots than the lead's reply took and that the
// survey alone would have sent, where the atlas knows no way home from what
// the lead revealed — with the engine's own Specs, salt included.
// Their count must be what engine_spoof_reach_held_total counted.
func reachDifferential(t *testing.T, eng *core.Engine, pairs []srcDst) reachStats {
	st := reachStats{pairs: len(pairs)}
	bg := context.Background()
	counted := observe(eng).Counter("engine_spoof_reach_held_total")
	siteOf := map[ipv4.Addr]int{}
	for i, s := range eng.Sites {
		siteOf[s.Addr] = i
	}
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		p := mm.Next()
		for p != nil {
			lead := isSpoofSweep(p) && !p.Hedges
			held := mm.Held()
			before := counted.Value()
			d := eng.ExecPending(mm.Context(), p)
			mm.Deliver(d)
			var rep []measure.Reply
			var hop ipv4.Addr
			var best []ipv4.Addr
			if lead && d.Batch.Replies[0].RR.Responded {
				rep, hop = d.Batch.Replies, p.Reqs[0].Dst
				best = core.ExtractReverse(rep[0].RR.Recorded, hop, eng.Alias)
			}
			home := mm.WayHome(best) // before the next step adopts them
			next := mm.Next()
			if len(best) == 0 || home {
				p = next
				continue
			}
			slots := core.ReplySlots(rep[0].RR.Recorded, hop, eng.Alias)
			pfx, _ := eng.F.Topo.BGPPrefixOf(hop)
			info := eng.Ingress.Info[pfx]
			var byMemo []probe.Request
			for _, r := range held {
				sent := next != nil && next.Hedges && slices.ContainsFunc(next.Reqs, func(s probe.Request) bool { return s.VP.Addr == r.VP.Addr })
				surveyHeld := info != nil && info.Obs[siteOf[r.VP.Addr]].Dist >= slots
				if reach, ok := eng.Reach(r.VP.Addr, hop); !sent && !surveyHeld && ok && reach > slots {
					byMemo = append(byMemo, r)
				}
			}
			if n := counted.Value() - before; n != uint64(len(byMemo)) {
				t.Errorf("%s→%s hop %s: engine_spoof_reach_held_total +%d, the test finds %d hedges the memo held",
					pr.src.Agent.Addr, pr.dst, hop, n, len(byMemo))
			}
			if len(byMemo) > 0 {
				longer := false
				for _, rep := range eng.Pool.Do(bg, byMemo).Replies {
					longer = longer || rep.RR.Responded && len(core.ExtractReverse(rep.RR.Recorded, hop, eng.Alias)) > len(best)
				}
				st.leads++
				st.held += len(byMemo)
				st.longer += btoi(longer)
			}
			p = next
		}
	}
	return st
}

// siteLoad is the spoofed packets each vantage point sent measuring pairs on
// eng, by address.
func siteLoad(eng *core.Engine, pairs []srcDst) map[ipv4.Addr]int {
	load := map[ipv4.Addr]int{}
	for _, pr := range pairs {
		driveSeeing(context.Background(), eng, pr.src, pr.dst, func(p *core.Pending, d core.Delivery) {
			for j, r := range p.Reqs {
				if r.Kind == measure.KindSpoofedRR && d.Batch.Replies[j].Sent {
					load[r.VP.Addr]++
				}
			}
		})
	}
	return load
}

// TestReachDifferential prices the reach memo on the benchmark's slice: at
// most one lead in ten that held a hedge back on the memo's word may have
// held one that would have revealed a longer path. What the rule costs in
// completions and wrong paths is TestRuleLedger's "learned reach" row.
//
// It also reads the load the rule puts on the vantage points: "wide" on the
// benchmark's world, measured with the rule off and on, spoofed packets
// tallied by site. A learned lead must not concentrate the load: the busiest
// site's own spoofed packets per revtr may not rise. Its share of the mean
// is logged, not judged: a rule that keeps other sites' silent probes off
// the wire raises it without the memo moving one lead.
func TestReachDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	d, pairs := benchSlice()
	st := reachDifferential(t, d.Engine(core.Revtr20Options()), pairs)
	t.Logf("bench/clean: %d pairs, %d leads held %d hedges on the memo's word, %d of those leads one that reveals more",
		st.pairs, st.leads, st.held, st.longer)
	if st.leads == 0 {
		t.Fatal("the memo held no hedge back: the slice exercises nothing")
	}
	if st.longer*10 > st.leads {
		t.Errorf("%d of the %d leads the memo held hedges behind held one that would have revealed a longer path, want <= 10 %%",
			st.longer, st.leads)
	}

	w := worldOf(31, topology.Vintage2020)
	wide := w.wide()
	var perRevtr [2]float64
	for i, off := range []uint16{1 << slices.Index(core.RuleNames[:], "learned reach"), 0} {
		eng := w.d.Engine(core.Revtr20Options())
		eng.SetRulesOff(off)
		load := siteLoad(eng, wide)
		total, hot := 0, ipv4.Addr(0)
		for vp, n := range load {
			total += n
			if n > load[hot] || n == load[hot] && vp < hot {
				hot = vp
			}
		}
		mean := float64(total) / float64(len(w.d.SiteAgents))
		perRevtr[i] = float64(load[hot]) / float64(len(wide))
		t.Logf("wide, %-11s %5d spoofed packets; hottest of %d sites %s: %d (%.3f per revtr), %.3fx the mean",
			[]string{"rule off:", "rule on:"}[i], total, len(w.d.SiteAgents), hot, load[hot],
			perRevtr[i], float64(load[hot])/mean)
	}
	if perRevtr[1] > perRevtr[0] {
		t.Errorf("the learned lead concentrates load: the hottest site sends %.3f spoofed packets per revtr, %.3f with the rule off", perRevtr[1], perRevtr[0])
	}
}
