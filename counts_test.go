package revtr

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
)

// TestProbeCountGate pins the paper's currency in tier-1: four fixed
// slices of the benchmark's world — 1000 ASes, 30 sites, seed 31 — each
// measured serially by one revtr 2.0 engine of its own, must cost exactly
// these packets per kind, these spoofed rounds and this much virtual
// time (§5.2.4's currency: 10 s per round short of a reply, the round
// trips of one that holds them all), and end in exactly these
// states, with exactly so many complete paths off the ground truth and
// off its AS path. The counts are a pure function of the seed; a change
// that moves one of them is a change to what a reverse traceroute costs or
// finds, and says so here by editing the want row.
//
// "distinct" is 8 sources x 8 destinations of their own: 64 pairs that
// share almost no hop across sources. "shared" is the same 8 sources x
// the same 16 destinations: what one source's sweep settles about a hop
// for every source (the engine cache's verdicts) shows here as an exact
// count.
//
// The background is booked too: the packets by kind that the 8 sources'
// atlas builds send. The classic build of n/6 entries sent 43 887 of
// them; the Doubletree build's larger atlas may not send more.
func TestProbeCountGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	cfg := DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := Build(cfg)
	dests := d.OnePerPrefix()
	var srcs []core.Source
	before := d.Prober.Count
	for si := 0; si < 8; si++ {
		srcs = append(srcs, d.NewSource(d.PickSourceHost(si*17)))
	}
	// The classic build read RR 17515, SpoofRR 7172 and Traceroute 19200.
	// The ingress plan of only the sites the survey saw within RR range
	// moved SpoofRR 6739 -> 6466: the atlas's RR-alias picker reads it.
	const classicBackground = 43887
	background := d.Prober.Count.Sub(before)
	if want := (measure.Counters{RR: 14706, SpoofRR: 6466, Traceroute: 19394}); background != want {
		t.Errorf("atlas background moved: got %+v, want %+v", background, want)
	}
	if background.Total() > classicBackground {
		t.Errorf("atlas background %d packets, above the classic build's %d", background.Total(), classicBackground)
	}
	// pick returns the first n destinations of the stride-211 walk from
	// start that lie in none of the ASes of avoid.
	pick := func(start, n int, avoid ...core.Source) []*topology.Host {
		var out []*topology.Host
		for k := 0; len(out) < n; k++ {
			dst := dests[(start+k*211)%len(dests)]
			if !slices.ContainsFunc(avoid, func(s core.Source) bool { return s.Agent.AS == dst.AS }) {
				out = append(out, dst)
			}
		}
		return out
	}
	shared := pick(0, 16, srcs...)
	wide := pick(0, 96)

	for _, tc := range []struct {
		name  string
		lossy bool
		dests func(si int) []*topology.Host
		want  countRow
	}{
		// RR and the three tallies have stood since PR 15. PR 16 (the
		// symmetry-stage traceroute starts at the tail) moved Traceroute
		// alone, 1258 -> 772. PR 17 (a spoofed sweep ends at its first
		// silent batch; an RR stage that revealed nothing is cached) moved
		// SpoofRR 811 -> 648, and the two columns added with it from the
		// 303 batches and 3070389866 virtual us measured on its parent.
		// PR 18 (out-of-range and unresponsive verdicts shared across
		// sources) moved SpoofRR 648 -> 642, batches 240 -> 238 and virtual
		// time by those two batches' 20 s: these pairs share few hops.
		// PR 19 (a tail window walks through silence; the traceroute to a
		// hop a symmetry assumption adopted starts where that hop answered)
		// moved Traceroute 772 -> 409 and virtual time by the traceroutes'
		// RTT sums alone, 2420393092 on its parent; no batch moved.
		// PR 20 (a spoofed batch that holds a reply to every request ends
		// at the last one) moved virtual time alone, from 2409137809 on its
		// parent; topped up to the timeout again (waitOutUS) it is that
		// number still, so nothing but the wait changed.
		// PR 22, measured on its parent first (the row above this one's).
		// The reverse-distance estimate alone — the direct probe not sent
		// to a cursor more than eight hops out, the traceroute started one
		// TTL past the distance — moved RR 229 -> 125 and Traceroute
		// 409 -> 318, and virtual time by the round trips not made
		// (382053661); no spoofed packet, batch or outcome moved. The
		// adoption cut at the first revealed hop the atlas intersects moved
		// the rest: two aborted paths and one more now complete (41 / 21),
		// and the stages no longer probed past a known way home took SpoofRR
		// 642 -> 624, six batches, five more direct probes and 26 traceroute
		// packets with them.
		// Then the survey's silence (a destination no site's survey RR ping
		// reached ends its RR stage at the direct probe) moved SpoofRR
		// 624 -> 616 and took four batches, each a 10 s timeout, off virtual
		// time and the waited-out column; every path and other packet stood.
		// The Doubletree atlas at n·3/8 entries (background above) holds
		// more of the paths home: RR 120 -> 117, SpoofRR 616 -> 598, six
		// batches fewer, and every outcome where it stood.
		// The atlas's AS distances (a cursor no reply has measured is as far
		// as the atlas crossed its AS, or near it) moved RR 117 -> 48 and
		// Traceroute 292 -> 268, and virtual time by their round trips; no
		// spoofed packet, batch or outcome moved.
		// The ingress plan of only the sites the survey saw within RR range,
		// nearest first within each depth, moved SpoofRR 598 -> 485 and
		// batches 222 -> 189; one more path completes (42 / 20), and with it
		// RR 48 -> 49 and Traceroute 268 -> 263. Virtual time moved from
		// 306496428, the 33 batches' waits with it.
		// No RR stage at a cursor in an AS the atlas heard no RR reply come
		// home from (atlas.RRDeaf) moved SpoofRR 485 -> 479 and two timed-out
		// batches, 20 s off both time columns; no direct probe (those stages
		// were out of range), traceroute or outcome moved.
		// The off-truth columns were added with PR 37 and measured on its
		// parent. Its chain step (the traceroute under a hop a symmetry
		// assumption adopted continues the one that hop was read off)
		// moved Traceroute 263 -> 229 and both time columns by the round
		// trips not made; nothing else moved.
		// The wrong-AS column and the packets-per-completion line read, when
		// they were added: 3 complete paths off the true AS path, 757
		// packets over 42 completions (18.024).
		// The spoofed round (a batch sent lead first, its hedges only where
		// the lead revealed nothing or one of them could reveal more) moved
		// SpoofRR 479 -> 379 and virtual time from 271807580: hedges sent
		// behind an answered lead wait their own round trip after it. Every
		// round waits out what its batch did (waitOutUS); nothing else moved.
		// The traceroute memo and climb (a symmetry traceroute starts where
		// the source's own traceroutes met the hop's AS, and climbs three
		// TTLs past a hop outside it) moved Traceroute 229 -> 211 and both
		// time columns by the round trips not made, on all four slices; RR,
		// SpoofRR, batches, outcomes, off-truth and wrong AS did not move.
		{"distinct", false, func(si int) []*topology.Host { return pick(si*29, 8, srcs[si]) },
			countRow{rr: 49, spoofRR: 379, traceroute: 211, complete: 42, aborted: 20, failed: 2,
				spoofBatches: 187, virtualUS: 274120203, waitOutUS: 1881644339,
				offTruthPaths: 2, offTruthHops: 3, wrongAS: 3}},
		// Added with PR 18 and measured on its parent first: RR 445,
		// SpoofRR 1395, Traceroute 1589, 86 / 40 / 2, 530 batches over
		// 5388293358 virtual us. Every destination is stuck on the same few
		// hops for all eight sources, and seven of them now read what the
		// first one's sweep settled. PR 19 moved Traceroute 1516 -> 797 and
		// virtual time from 3126401283, as above; PR 20 virtual time from
		// 3106024832, which waitOutUS still reads. PR 22's estimate moved
		// RR 426 -> 252 and Traceroute 797 -> 707 and, a sweep now the
		// longest of three revelations where a direct probe used to settle
		// the stage, SpoofRR 754 -> 757 in one batch more; the adoption cut
		// RR 245, SpoofRR 748, Traceroute 697 and three batches. Outcomes
		// did not move. The survey's silence then moved SpoofRR 748 -> 743
		// and took three timed-out batches, 30 s. The Doubletree atlas at
		// n·3/8 moved RR 245 -> 242, SpoofRR 743 -> 710, Traceroute
		// 697 -> 693 and thirteen batches; outcomes did not move. The
		// atlas's AS distances moved RR 242 -> 133, Traceroute 693 -> 657
		// and virtual time with them. waitOutUS moved 5 137 us less: one
		// pair's batch now goes to the destination, whose skipped direct
		// probe used to reveal the hop it went to, and its slowest reply is
		// that much later. The ingress plan of only in-range sites, nearest
		// first, moved SpoofRR 710 -> 636, batches 286 -> 260, RR 133 -> 130
		// and Traceroute 657 -> 652; two aborted paths now complete (90 / 36),
		// and virtual time moved from 266951022. The atlas's RR-deaf ASes
		// moved RR 130 -> 124, SpoofRR 636 -> 624 and five batches: virtual
		// time 50 428 579 us less, the five batches' 10 s timeouts and the
		// direct probes' round trips; traceroutes and outcomes did not move.
		// The chain step moved Traceroute 652 -> 559 and virtual time from
		// 204736373, as above. Wrong AS paths and packets per completion
		// when they were added: 12, and 1307 / 90 = 14.522. The spoofed round
		// moved SpoofRR 624 -> 446 and virtual time from 198834211, as above;
		// waitOutUS moved 2 590 us less, a wait outside the rounds of one
		// aborted pair whose packets and outcome did not move. The memo and
		// climb moved Traceroute 559 -> 465 and both time columns, as above.
		{"shared", false, func(int) []*topology.Host { return shared },
			countRow{rr: 124, spoofRR: 446, traceroute: 465, complete: 90, aborted: 36, failed: 2,
				spoofBatches: 255, virtualUS: 197108796, waitOutUS: 2580034554,
				offTruthPaths: 4, offTruthHops: 8, wrongAS: 12}},
		// "wide" is the same 8 sources x the first 96 destinations of the
		// walk, less the pairs inside a source's AS: accuracy beside cost on
		// 766 pairs. "wide-lossy" measures them under batch-lossy's fault
		// plan (2 % link loss, ICMP rate limiting, the last three spoofing
		// sites blacked out, two retries), where silence may be loss. Both
		// were measured on the parent of the spoofed round first:
		//   wide:       RR 726, SpoofRR 3359, Traceroute 2993, 480 / 284 / 2,
		//               1399 batches, 1457851271 virtual us (14167256592
		//               waited out), 24 off-truth paths (60 hops), 21 wrong AS;
		//   wide-lossy: RR 1376, SpoofRR 4404, Traceroute 3901, 377 / 331 / 58,
		//               1220 batches, 2202697090 virtual us (12348139497),
		//               26 off-truth paths (59 hops), 17 wrong AS.
		// The round moved wide's SpoofRR 3359 -> 2342, virtual time 1.7 %
		// down and, stages ending on a lead's reply instead of a batch's,
		// RR 726 -> 730, Traceroute 2993 -> 2999 and six more rounds; every
		// outcome and accuracy column stood. Under loss it
		// moved SpoofRR 4404 -> 3272 and virtual time 17 % down, the hedges
		// behind a silent lead flying inside its timeout; one path in 377
		// completes no more, and one more complete path is off the truth
		// and off its AS path.
		// The memo and climb moved wide's Traceroute 2999 -> 2775 and both
		// time columns, as above. Under loss they moved Traceroute
		// 3889 -> 3915: a climb toward a target that does not answer walks
		// back down through the TTLs it climbed over. Virtual time still
		// fell; nothing else moved.
		{"wide", false, func(si int) []*topology.Host { return outside(wide, srcs[si]) },
			countRow{rr: 730, spoofRR: 2342, traceroute: 2775, complete: 480, aborted: 284, failed: 2,
				spoofBatches: 1405, virtualUS: 1419155786, waitOutUS: 14212969343,
				offTruthPaths: 24, offTruthHops: 60, wrongAS: 21}},
		{"wide-lossy", true, func(si int) []*topology.Host { return outside(wide, srcs[si]) },
			countRow{rr: 1379, spoofRR: 3272, traceroute: 3915, complete: 376, aborted: 332, failed: 58,
				spoofBatches: 1223, virtualUS: 1821044087, waitOutUS: 12376522578,
				offTruthPaths: 27, offTruthHops: 70, wrongAS: 18}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.lossy {
				defer d.Fabric.SetFaults(nil)
				defer d.Pool.SetRetry(d.Pool.Retry())
				if _, err := d.InjectFaults("seed=31,loss=0.02,icmp-frac=0.3,icmp-pass=0.5", 3, 0, 2); err != nil {
					t.Fatal(err)
				}
			}
			eng := d.Engine(core.Revtr20Options())
			var got countRow
			var sum measure.Counters
			before := d.Pool.Counters()
			for si, src := range srcs {
				for _, dst := range tc.dests(si) {
					// MeasureReverse's own loop, seeing each spoofed round: one
					// that holds every reply is topped up to the timeout, and
					// one that waited its lead's round trip and then the
					// timeout is taken back to the timeout.
					var leadTopUp int64 // of the round's lead, if it held its reply
					mm := eng.Begin(context.Background(), src, dst.Addr)
					for p := mm.Next(); p != nil; p = mm.Next() {
						dl := eng.ExecPending(mm.Context(), p)
						full := p.Spoofed && holdsEveryReply(dl.Batch)
						switch {
						case p.Hedges && leadTopUp > 0 && full:
							got.waitOutUS -= min(leadTopUp, dl.Batch.MaxRTTUS)
						case p.Hedges && leadTopUp > 0:
							got.waitOutUS -= core.SpoofTimeoutUS
						case p.Hedges:
						case full:
							leadTopUp = core.SpoofTimeoutUS - dl.Batch.MaxRTTUS
							got.waitOutUS += leadTopUp
						case p.Spoofed:
							leadTopUp = 0
						}
						mm.Deliver(dl)
					}
					res := mm.Result()
					sum = sum.Add(res.Probes)
					got.spoofBatches += res.SpoofBatches
					got.virtualUS += res.DurationUS
					got.waitOutUS += res.DurationUS
					switch res.Status {
					case core.StatusComplete:
						got.complete++
						if n := offTruth(d, dst, res); n > 0 {
							got.offTruthPaths++
							got.offTruthHops += n
						}
						if truth := d.Fabric.ASPath(d.TrueReversePath(dst, src.Agent.Addr)); !equalASPaths(asPathTruth(d, res.Addrs()), truth) {
							got.wrongAS++
						}
					case core.StatusAborted:
						got.aborted++
					default:
						got.failed++
					}
				}
			}
			got.rr, got.spoofRR, got.traceroute = sum.RR, sum.SpoofRR, sum.Traceroute
			if pool := d.Pool.Counters().Sub(before); pool != sum {
				t.Errorf("pool ledger %+v != sum of per-measurement probes %+v", pool, sum)
			}
			if got != tc.want {
				t.Fatalf("seed-31 slice moved:\n%s", got.diff(tc.want))
			}
		})
	}
}

// outside returns the hosts of dests that lie outside src's AS.
func outside(dests []*topology.Host, src core.Source) []*topology.Host {
	return slices.DeleteFunc(slices.Clone(dests), func(h *topology.Host) bool { return h.AS == src.Agent.AS })
}

// offTruth counts the hops of res, measured from dst, that lie on no
// ground-truth path from dst back to the source: eight flows are unioned,
// so that per-flow load balancing is not a wrong hop, and private and host
// addresses carry no router-level claim. It is the rule of splicedWrong in
// internal/core's chaos suite.
func offTruth(d *Deployment, dst *topology.Host, res *core.Result) int {
	on := map[ipv4.Addr]bool{res.Src: true}
	for flow := uint64(0); flow < 8; flow++ {
		for _, r := range d.Fabric.ForwardRouterPath(dst.Router, res.Src, dst.Addr, flow) {
			for _, a := range d.Topo.Aliases(r) {
				on[a] = true
			}
		}
	}
	n := 0
	for _, h := range res.Hops {
		if _, isHost := d.Topo.HostOf(h.Addr); !on[h.Addr] && !h.Addr.IsPrivate() && !isHost {
			n++
		}
	}
	return n
}

// holdsEveryReply reports whether a delivered spoofed-RR batch has a reply
// to each of its requests, so that nothing was left to wait for.
func holdsEveryReply(b probe.Batch) bool {
	return !slices.ContainsFunc(b.Replies, func(r measure.Reply) bool { return !r.RR.Responded })
}

// countRow is one slice's cost and outcome.
type countRow struct {
	rr, spoofRR, traceroute   uint64
	complete, aborted, failed int
	spoofBatches              int
	virtualUS                 int64
	// waitOutUS is virtualUS with every spoofed batch that held all its
	// replies topped up to the timeout: what the slice cost when every
	// batch waited it out.
	waitOutUS int64
	// offTruthPaths counts the complete paths holding a hop that lies on
	// no ground-truth path from the destination back to the source
	// (offTruth), offTruthHops those hops.
	offTruthPaths, offTruthHops int
	// wrongAS counts the complete paths whose AS path under the ground-truth
	// mapper differs from the true reverse path's: Fig 5a's currency.
	wrongAS int
}

// diff renders got against want, a line per column.
func (got countRow) diff(want countRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %11s %11s %11s\n", "", "got", "want", "diff")
	line := func(name string, g, w int64) {
		fmt.Fprintf(&sb, "%-12s %11d %11d %+11d\n", name, g, w, g-w)
	}
	line("RR", int64(got.rr), int64(want.rr))
	line("SpoofRR", int64(got.spoofRR), int64(want.spoofRR))
	line("Traceroute", int64(got.traceroute), int64(want.traceroute))
	line("complete", int64(got.complete), int64(want.complete))
	line("aborted", int64(got.aborted), int64(want.aborted))
	line("failed", int64(got.failed), int64(want.failed))
	line("batches", int64(got.spoofBatches), int64(want.spoofBatches))
	line("virtual us", got.virtualUS, want.virtualUS)
	line("waited out", got.waitOutUS, want.waitOutUS)
	line("off-truth", int64(got.offTruthPaths), int64(want.offTruthPaths))
	line("off hops", int64(got.offTruthHops), int64(want.offTruthHops))
	line("wrong AS", int64(got.wrongAS), int64(want.wrongAS))
	// Derived: probes_per_revtr charges attempts, so it rewards aborting
	// early; this charges completions.
	perComplete := func(r countRow) float64 {
		return float64(r.rr+r.spoofRR+r.traceroute) / float64(max(r.complete, 1))
	}
	fmt.Fprintf(&sb, "%-12s %11.3f %11.3f %+11.3f\n", "pkts/compl", perComplete(got), perComplete(want), perComplete(got)-perComplete(want))
	return sb.String()
}
