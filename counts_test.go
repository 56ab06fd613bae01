package revtr

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
)

// TestProbeCountGate pins the paper's currency in tier-1: two fixed
// slices of the benchmark's world — 1000 ASes, 30 sites, seed 31 — each
// measured serially by one revtr 2.0 engine of its own, must cost exactly
// these packets per kind, these spoofed batches and this much virtual
// time (§5.2.4's currency: 10 s per batch short of a reply, the slowest
// round trip of one that holds them all), and end in exactly these
// states. The counts are a pure function of the seed; a change that moves
// one of them is a change to what a reverse traceroute costs or finds,
// and says so here by editing the want row.
//
// "distinct" is 8 sources x 8 destinations of their own: 64 pairs that
// share almost no hop across sources. "shared" is the same 8 sources x
// the same 16 destinations: what one source's sweep settles about a hop
// for every source (the engine cache's verdicts) shows here as an exact
// count.
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

	for _, tc := range []struct {
		name  string
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
		{"distinct", func(si int) []*topology.Host { return pick(si*29, 8, srcs[si]) },
			countRow{rr: 120, spoofRR: 624, traceroute: 292, complete: 41, aborted: 21, failed: 2,
				spoofBatches: 232, virtualUS: 351494956, waitOutUS: 2339823785}},
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
		// did not move.
		{"shared", func(int) []*topology.Host { return shared },
			countRow{rr: 245, spoofRR: 748, traceroute: 697, complete: 88, aborted: 38, failed: 2,
				spoofBatches: 302, virtualUS: 306820788, waitOutUS: 3071351736}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := d.Engine(core.Revtr20Options())
			var got countRow
			var sum measure.Counters
			before := d.Pool.Counters()
			for si, src := range srcs {
				for _, dst := range tc.dests(si) {
					// MeasureReverse's own loop, seeing each spoofed batch: one
					// that holds every reply is topped up to the timeout.
					mm := eng.Begin(context.Background(), src, dst.Addr)
					for p := mm.Next(); p != nil; p = mm.Next() {
						dl := eng.ExecPending(mm.Context(), p)
						if p.Spoofed && holdsEveryReply(dl.Batch) {
							got.waitOutUS += core.SpoofTimeoutUS - dl.Batch.MaxRTTUS
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
	return sb.String()
}
