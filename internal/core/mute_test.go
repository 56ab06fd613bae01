package core_test

import (
	"context"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// TestHeardHopIsNeverMute: source A's silent round at a hop writes the hop
// mute for every source; source B then hears the hop answer; source C's
// direct probe there draws silence with a retry to spend. The silence may be
// C's own path home, so C must send its round: a hop some source heard
// answer is mute to nobody. Every reply is fabricated, so the three stages
// differ in what they were told alone.
func TestHeardHopIsNeverMute(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	srcs := moreSources(c, 3)
	a, b, cc := srcs[0], srcs[1], srcs[2]
	bg := context.Background()
	// deliver fabricates p's delivery: every request sent, and answered, if
	// answered, by an array that locates nothing and has a slot to spare, so
	// that it says nothing of range either.
	deliver := func(p *core.Pending, answered bool) core.Delivery {
		d := probe.Batch{Replies: make([]measure.Reply, len(p.Reqs))}
		for i, req := range p.Reqs {
			d.Replies[i].Sent = true
			if answered {
				d.Replies[i].RR = measure.RRResult{Responded: true, RTTUS: 1000, Recorded: nineStamps(req.Dst)[:ipv4.RRSlots-1]}
			}
			if p.Spoofed {
				d.Sent.SpoofRR++
			} else {
				d.Sent.RR++
			}
		}
		return core.Delivery{Batch: d}
	}
	// stage drives src's measurement of dst through its RR stage at dst,
	// every probe answered as answered says, and returns what it sent there:
	// whether its first probe was the direct one, and how many spoofed rounds
	// (leads) followed.
	stage := func(eng *core.Engine, src core.Source, dst ipv4.Addr, answered bool) (direct bool, rounds int) {
		mm := eng.Begin(bg, src, dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			if p.Kind != core.PendingProbes || p.Reqs[0].Dst != dst || !isDirectRR(p) && !isSpoofSweep(p) {
				break
			}
			direct = direct || isDirectRR(p) && rounds == 0
			rounds += btoi(isSpoofSweep(p) && !p.Hedges)
			mm.Deliver(deliver(p, answered))
		}
		return direct, rounds
	}

	tried := 0
	for _, dst := range c.dsts {
		eng, _ := c.engine(1, probe.RetryPolicy{Max: 1})
		if _, rounds := stage(eng, a, dst, false); rounds == 0 {
			continue // A opened no sweep there: deaf, in its atlas, or closed silent
		}
		if _, mute := eng.Verdicts(dst); !mute {
			t.Fatalf("%s: A's silent round wrote no mute witness", dst)
		}
		if direct, rounds := stage(eng, b, dst, true); !direct && rounds == 0 {
			continue // B sent nothing there to hear an answer to
		}
		if _, mute := eng.Verdicts(dst); mute || eng.Mute(dst) {
			t.Errorf("%s: still mute after B heard it answer", dst)
		}
		direct, rounds := stage(eng, cc, dst, false)
		if !direct {
			continue // C skipped its direct probe: not the case this test is for
		}
		tried++
		if rounds == 0 {
			t.Errorf("%s: C's silent direct probe closed the stage at a hop B heard answer; want its round", dst)
		}
	}
	if tried == 0 {
		t.Fatal("no hop took A's silent round, B's reply and C's direct probe: the test exercises nothing")
	}
	t.Logf("%d hops", tried)
}
