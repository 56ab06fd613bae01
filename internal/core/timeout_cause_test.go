package core_test

// The tally of spoofed rounds that waited out the timeout, by what side
// probes say silenced their lead: where §5.2.4's 10 s go, and what a shorter
// timeout (or a rule that skips the round) has to work with.

import (
	"context"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
)

// The causes of a silent spoofed probe, as side probes find them.
const (
	causeMute  = iota // the hop answers neither the vantage point's RR ping nor the source's
	causeHome         // the hop answers the vantage point's RR ping: the reply to the source did not come home
	causeVP           // the hop answers only the source's RR ping: the vantage point's packet does not reach it
	causeOther        // the spoofed probe sent again draws a reply: loss, or a rate limit
	numCauses
)

// timeoutTally is one engine's spoofed rounds over a slice: how many, how
// many waited out the timeout, and the silent probes of those by cause; and
// of those, how many probed a hop the engine reads as mute once the slice
// is done (Engine.Mute).
type timeoutTally struct {
	rounds, timeouts int
	cause, mute      [numCauses]int
}

// tallyTimeouts measures pairs on eng and sends, for every probe of a round
// short of a reply, the side probes that tell its cause — through
// measure.Issue, so that the pool's ledger does not see them.
func tallyTimeouts(eng *core.Engine, pairs []srcDst) timeoutTally {
	var tl timeoutTally
	answers := func(sp measure.Spec) bool { return measure.Issue(eng.F, sp, eng.Pool.Now()).RR.Responded }
	var silent [numCauses][]ipv4.Addr // the hop of each silent probe, by cause
	for _, pr := range pairs {
		driveSeeing(context.Background(), eng, pr.src, pr.dst, func(p *core.Pending, d core.Delivery) {
			if !isSpoofSweep(p) || p.Hedges {
				return
			}
			tl.rounds++
			if !shortOfReply(p, d.Batch) {
				return
			}
			tl.timeouts++
			for i, req := range p.Reqs {
				if d.Batch.Replies[i].RR.Responded || !d.Batch.Replies[i].Sent {
					continue
				}
				vpPing := measure.Spec{Kind: measure.KindRR, VP: req.VP, Dst: req.Dst, Seq: req.Seq}
				srcPing := measure.Spec{Kind: measure.KindRR, VP: pr.src.Agent, Dst: req.Dst, Seq: req.Seq}
				cause := causeMute
				switch {
				case answers(req):
					cause = causeOther
				case answers(vpPing):
					cause = causeHome
				case answers(srcPing):
					cause = causeVP
				}
				tl.cause[cause]++
				silent[cause] = append(silent[cause], req.Dst)
			}
		})
	}
	for cause, hops := range silent {
		for _, hop := range hops {
			tl.mute[cause] += btoi(eng.Mute(hop))
		}
	}
	return tl
}

// TestSpoofTimeoutCauses tallies, over the differentials' slice of the
// benchmark's world, the spoofed rounds that waited out the timeout by what
// silenced their probes, with the deaf ASes' rule off and on. A clean world
// loses nothing, so no silent probe may be other. The rule skips rounds at
// ASes whose replies do not come home: with it on, fewer rounds wait, and
// fewer probes are silenced on the way home, while no more are mute. The
// "read" columns count the silent probes whose hop the engine reads as mute
// once the slice is done. With the rule on, every mute one must, and at most
// 3 of those silenced on the way home, whose silence is one source's and not
// the hop's. With it off the rounds at deaf ASes write mute witnesses that
// nobody's reply outweighs: 43 of 87 home probes' hops read mute.
func TestSpoofTimeoutCauses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	d, pairs := benchSlice()
	t.Logf("%-22s %6s %8s | %5s %5s %4s %5s | %9s %9s", "deaf ASes", "rounds", "timeouts", "mute", "home", "vp", "other",
		"mute read", "home read")
	var tl [2]timeoutTally
	// Before the atlas's and the learnt deafness became one rule, the row
	// switched off the learnt half alone: off read 1109 rounds, 106 timeouts,
	// 66 mute and 40 home, on what it reads now.
	bit := uint16(1) << slices.Index(core.RuleNames[:], "deaf ASes")
	for i, off := range []uint16{bit, 0} {
		eng := d.Engine(core.Revtr20Options())
		eng.SetRulesOff(off)
		tl[i] = tallyTimeouts(eng, pairs)
		c := tl[i].cause
		t.Logf("%-22s %6d %8d | %5d %5d %4d %5d | %9d %9d", []string{"off", "on"}[i], tl[i].rounds, tl[i].timeouts,
			c[causeMute], c[causeHome], c[causeVP], c[causeOther], tl[i].mute[causeMute], tl[i].mute[causeHome])
		if tl[i].timeouts == 0 || c[causeOther] > 0 {
			t.Errorf("%s: %d timeouts, %d silent probes other: want some, and none", []string{"off", "on"}[i], tl[i].timeouts, c[causeOther])
		}
	}
	if c, m := tl[1].cause, tl[1].mute; m[causeMute] != c[causeMute] || m[causeHome] > 3 {
		t.Errorf("on: %d of %d mute probes' hops and %d of %d silenced on the way home read mute: want all, and at most 3",
			m[causeMute], c[causeMute], m[causeHome], c[causeHome])
	}
	if off, on := tl[0], tl[1]; on.timeouts >= off.timeouts || on.cause[causeHome] >= off.cause[causeHome] || on.cause[causeMute] > off.cause[causeMute] {
		t.Errorf("the deaf ASes moved timeouts %d -> %d, home %d -> %d, mute %d -> %d: want the first two down, the third not up",
			off.timeouts, on.timeouts, off.cause[causeHome], on.cause[causeHome], off.cause[causeMute], on.cause[causeMute])
	}
}
