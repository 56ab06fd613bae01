package revtr

import (
	"context"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// TestProbeCountGate pins the paper's currency on the benchmark's world —
// 1000 ASes, 30 sites, seed 31 — at its widest: 8 sources x the first 96
// destinations of the stride-211 walk over one host per prefix, less the
// pairs inside a source's AS, 766 pairs measured serially by one revtr 2.0
// engine of their own, must cost exactly these packets per kind, these
// spoofed rounds and this much virtual time (§5.2.4's currency: 10 s per
// round short of a reply, the round trips of one that holds them all), and
// end in exactly these states, with exactly so many complete paths off the
// ground truth and off its AS path. The counts are a pure function of the
// seed; a change that moves one of them is a change to what a reverse
// traceroute costs or finds, and says so here by editing the want row.
//
// The gate's narrow slices, "distinct" and "shared", and the atlas
// background are pinned in internal/core's TestProbeCountGate; these two
// rows are the all-on seed-31 cells of its TestRuleLedger.
func TestProbeCountGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	cfg := DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := Build(cfg)
	dests := d.OnePerPrefix()
	var srcs []core.Source
	for si := 0; si < 8; si++ {
		srcs = append(srcs, d.NewSource(d.PickSourceHost(si*17)))
	}
	var wide []*topology.Host
	for k := 0; k < 96; k++ {
		wide = append(wide, dests[k*211%len(dests)])
	}

	for _, tc := range []struct {
		name  string
		lossy bool
		want  countRow
	}{
		// "wide-lossy" measures the pairs under batch-lossy's fault plan
		// (2 % link loss, ICMP rate limiting, the last three spoofing sites
		// blacked out, two retries), where silence may be loss. Both were
		// measured on the parent of the spoofed round first:
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
		// Keying a probe on its content and the measurement's salt, not on
		// how many probes went before it, re-drew every per-packet balancer
		// and, under loss, every drop. Wide: RR 730 -> 735, SpoofRR
		// 2342 -> 2340, Traceroute 2775 -> 2772 (5847 packets either way),
		// complete 480 -> 477, aborted 284 -> 287, batches 1405 -> 1404,
		// virtual time from 1419155786 (waitOutUS 14212969343), off-truth
		// 24 / 60 -> 25 / 61. Wide-lossy: RR 1379 -> 1317, SpoofRR
		// 3272 -> 3391, Traceroute 3915 -> 3687 (8566 -> 8395 packets),
		// complete 376 -> 374, aborted 332 -> 340, failed 58 -> 52, batches
		// 1223 -> 1224, virtual time 1821044087 -> 2025465852 (about twenty more
		// rounds short of a reply; waitOutUS from 12376522578), off-truth
		// 27 / 70 -> 20 / 53, wrong AS 18 -> 17.
		// The reach memo (a round led by the site whose own replies reached
		// the hop's AS in the fewest slots, a hedge held back whose replies
		// needed more than the lead's) moved wide's SpoofRR 2340 -> 2077,
		// Traceroute 2772 -> 2771, virtual time from 1399291013 and one
		// off-truth hop, 61 -> 60; wide-lossy's SpoofRR 3391 -> 3170, one
		// batch, virtual time from 2025465852 and waitOutUS from 12381484716.
		// Every outcome and every other accuracy column stood.
		// The retry budget (a silent lead's hedges cut to the retries, sent
		// once each; a window above an RR-silent hop giving up after 2 + Max
		// silent TTLs) moved wide's SpoofRR 2077 -> 1885 and Traceroute
		// 2771 -> 2573, nothing else: silence costs no virtual time. Under
		// loss (two retries: the same hedges, without their pool retries,
		// and the four-TTL give-up) it moved RR 1317 -> 1331, SpoofRR
		// 3170 -> 2822, Traceroute 3687 -> 3701, complete 374 -> 375,
		// aborted 340 -> 339, batches 1225 -> 1220, virtual time from
		// 1928672357, waitOutUS from 12391484716 and off-truth hops 53 -> 52.
		// The window that walks down through silence instead of sweeping
		// from TTL 1 under an echo reply left wide as it was. Under loss it
		// moved Traceroute 3701 -> 3361, RR 1331 -> 1334, SpoofRR
		// 2822 -> 2827, aborted 339 -> 353, failed 52 -> 38 (a destination
		// that reaches where the sweep gave up has a penultimate hop), one
		// batch, virtual time from 1909737646 and waitOutUS from
		// 12342170440; completions and accuracy stood.
		// A direct probe that drew silence closing the stage at no retries,
		// with no spoofed round behind it, moved wide's SpoofRR 1885 -> 1851,
		// batches 1404 -> 1370 and virtual time from 1381147382 (waitOutUS
		// from 14203043449): 32 timed-out leads of 34, one of which drew the
		// reply that completed 16.25.128.2 -> 16.225.128.1, whose forward
		// path crosses option-filtering AS 23. With it complete 477 -> 476,
		// aborted 287 -> 288, RR 735 -> 736 and Traceroute 2573 -> 2567.
		// Wide-lossy (two retries) sends its round as before.
		// The ASes a source's own silent rounds found deaf (a second silent
		// round at another hop of the AS, or, at no retries, one at a hop the
		// survey or a source heard answer, which shares no silent verdict),
		// whose RR stages then open no more, moved wide's RR 736 -> 685,
		// SpoofRR 1851 -> 1820, batches 1370 -> 1344, virtual time from
		// 1060987150 (-28.6 %) and waitOutUS from 13863011739; wide-lossy's
		// RR 1334 -> 1326, SpoofRR 2827 -> 2779, batches 1221 -> 1211, virtual
		// time from 1913638455 and waitOutUS from 12346071249. No outcome,
		// traceroute or accuracy column moved.
		{"wide", false,
			countRow{rr: 685, spoofRR: 1820, traceroute: 2567, complete: 476, aborted: 288, failed: 2,
				spoofBatches: 1340, virtualUS: 757598041, waitOutUS: 13559661341,
				offTruthPaths: 25, offTruthHops: 60, wrongAS: 21}},
		{"wide-lossy", true,
			countRow{rr: 1326, spoofRR: 2779, traceroute: 3361, complete: 375, aborted: 353, failed: 38,
				spoofBatches: 1211, virtualUS: 1813243158, waitOutUS: 12245675952,
				offTruthPaths: 20, offTruthHops: 52, wrongAS: 17}},
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
			for _, src := range srcs {
				for _, dst := range wide {
					if dst.AS == src.Agent.AS {
						continue
					}
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
						if !slices.Equal(ip2as.ASPath(d.TruthMapper, res.Addrs()), d.Fabric.ASPath(d.TrueReversePath(dst, src.Agent.Addr))) {
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
				t.Fatalf("seed-31 slice moved:\ngot  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// countRow is one slice's cost and outcome, the columns of internal/core's
// countRow: waitOutUS is virtualUS with every spoofed round charged the
// timeout, offTruthPaths the complete paths holding a hop off every
// ground-truth path home (offTruth, offTruthHops those hops), and wrongAS
// the complete paths off the true reverse path's AS path.
type countRow struct {
	rr, spoofRR, traceroute     uint64
	complete, aborted, failed   int
	spoofBatches                int
	virtualUS, waitOutUS        int64
	offTruthPaths, offTruthHops int
	wrongAS                     int
}

// offTruth counts the hops of res, measured from dst, that lie on no
// ground-truth path from dst back to the source: eight flows are unioned,
// so that per-flow load balancing is not a wrong hop, and private and host
// addresses carry no router-level claim. It is internal/core's offTruth.
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
