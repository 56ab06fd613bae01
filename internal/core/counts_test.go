package core_test

// The paper's currency, pinned on benchmark-sized worlds. The count gate
// pins fixed slices of the benchmark's world; the rule ledger pins what each
// knowledge rule buys on three worlds. Both measure through measureRow and
// judge a path by offTruth.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/rule_ledger.md from TestRuleLedger's rows")

// world is a benchmark-sized world, 1000 ASes and 30 sites, with the count
// gate's 8 sources. Each is built once per test binary: a test that sets its
// faults or its pool's retry policy restores them before it returns.
type world struct {
	build      sync.Once
	d          *revtr.Deployment
	dests      []*topology.Host // one per prefix
	srcs       []core.Source
	background measure.Counters // what the sources' atlas builds sent
}

var worlds struct {
	sync.Mutex
	byKey map[[2]int64]*world
}

// worldOf returns the world of seed in vintage. Two worlds may be built at
// once.
func worldOf(seed int64, vintage topology.Vintage) *world {
	worlds.Lock()
	key := [2]int64{seed, int64(vintage)}
	w := worlds.byKey[key]
	if w == nil {
		if worlds.byKey == nil {
			worlds.byKey = map[[2]int64]*world{}
		}
		w = new(world)
		worlds.byKey[key] = w
	}
	worlds.Unlock()
	w.build.Do(func() {
		cfg := revtr.DefaultConfig(1000)
		cfg.Seed, cfg.Topology.Seed, cfg.Topology.Vintage, cfg.Sites = seed, seed, vintage, 30
		w.d = revtr.Build(cfg)
		w.dests = w.d.OnePerPrefix()
		before := w.d.Prober.Count
		for si := 0; si < 8; si++ {
			w.srcs = append(w.srcs, w.d.NewSource(w.d.PickSourceHost(si*17)))
		}
		w.background = w.d.Prober.Count.Sub(before)
	})
	return w
}

// pick returns the first n destinations of the stride-211 walk from start
// that lie in none of the ASes of avoid.
func (w *world) pick(start, n int, avoid ...core.Source) []*topology.Host {
	var out []*topology.Host
	for k := 0; len(out) < n; k++ {
		dst := w.dests[(start+k*211)%len(w.dests)]
		if !slices.ContainsFunc(avoid, func(s core.Source) bool { return s.Agent.AS == dst.AS }) {
			out = append(out, dst)
		}
	}
	return out
}

// pairs returns each source in turn with the destinations dests gives it.
func (w *world) pairs(dests func(si int) []*topology.Host) []srcDst {
	var out []srcDst
	for si, src := range w.srcs {
		for _, dst := range dests(si) {
			out = append(out, srcDst{src, dst.Addr})
		}
	}
	return out
}

// wide is the 8 sources x the first 96 destinations of the walk, less the
// pairs inside a source's AS: 766 pairs on the benchmark's world.
func (w *world) wide() []srcDst {
	wide := w.pick(0, 96)
	return w.pairs(func(si int) []*topology.Host {
		return slices.DeleteFunc(slices.Clone(wide), func(h *topology.Host) bool { return h.AS == w.srcs[si].Agent.AS })
	})
}

// benchSlice returns the benchmark's world — 1000 ASes, 30 sites, seed 31 —
// and the 520-pair slice of it the differentials measure: 8 sources, each
// with the first 65 destinations of its stride-211 walk outside its AS.
func benchSlice() (*revtr.Deployment, []srcDst) {
	w := worldOf(31, topology.Vintage2020)
	return w.d, w.pairs(func(si int) []*topology.Host { return w.pick(si*29, 65, w.srcs[si]) })
}

// countRow is one slice's cost and outcome.
type countRow struct {
	rr, spoofRR, traceroute   uint64
	complete, aborted, failed int
	spoofBatches              int
	virtualUS                 int64
	// waitOutUS is virtualUS with every spoofed round charged the timeout:
	// what the slice cost had every round waited it out.
	waitOutUS int64
	// offTruthPaths counts the complete paths holding a hop that lies on
	// no ground-truth path from the destination back to the source
	// (offTruth), offTruthHops those hops.
	offTruthPaths, offTruthHops int
	// wrongAS counts the complete paths whose AS path under the ground-truth
	// mapper differs from the true reverse path's: Fig 5a's currency.
	wrongAS int
	// moved counts, in a rule ledger row, the pairs whose Status or hop
	// addresses differ from the all-on row's.
	moved int
}

func (r countRow) packets() uint64 { return r.rr + r.spoofRR + r.traceroute }

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
	line("moved", int64(got.moved), int64(want.moved))
	// Derived: probes_per_revtr charges attempts, so it rewards aborting
	// early; this charges completions.
	perComplete := func(r countRow) float64 { return float64(r.packets()) / float64(max(r.complete, 1)) }
	fmt.Fprintf(&sb, "%-12s %11.3f %11.3f %+11.3f\n", "pkts/compl", perComplete(got), perComplete(want), perComplete(got)-perComplete(want))
	return sb.String()
}

// offTruth counts the hops of res that lie on no ground-truth path from its
// destination back to its source: eight flows are unioned, so that per-flow
// load balancing is not a wrong hop, and private and host addresses carry no
// router-level claim.
func offTruth(f *fabric.Fabric, topo *topology.Topology, res *core.Result) int {
	dst, ok := topo.HostOf(res.Dst)
	if !ok {
		return 0
	}
	on := map[ipv4.Addr]bool{res.Src: true}
	for flow := uint64(0); flow < 8; flow++ {
		for _, r := range f.ForwardRouterPath(dst.Router, res.Src, res.Dst, flow) {
			for _, a := range topo.Aliases(r) {
				on[a] = true
			}
		}
	}
	n := 0
	for _, h := range res.Hops {
		if _, isHost := topo.HostOf(h.Addr); !on[h.Addr] && !h.Addr.IsPrivate() && !isHost {
			n++
		}
	}
	return n
}

// measureRow measures pairs one after the other on eng, each by hand so that
// every spoofed round is seen (waitLedger), and returns their row and their
// results in order. The pool's ledger must move by the packets the results
// book, no measurement may send one RR or Timestamp request twice — a
// probe is its content, so the second would be the first packet again —
// and no traceroute window (start above TTL 1) may sweep.
func measureRow(t *testing.T, d *revtr.Deployment, eng *core.Engine, pairs []srcDst) (countRow, []*core.Result) {
	var row countRow
	var sum measure.Counters
	wait := waitLedger{timeoutUS: core.SpoofTimeoutUS}
	results := make([]*core.Result, len(pairs))
	before := d.Pool.Counters()
	for i, pr := range pairs {
		sent := map[string]bool{} // the measurement's RR and Timestamp requests sent
		res := driveSeeing(context.Background(), eng, pr.src, pr.dst, func(p *core.Pending, d core.Delivery) {
			wait.see(p, d)
			if p.Kind == core.PendingTraceroute && p.Start > 1 && d.Tr.Swept {
				t.Errorf("%s→%s: the traceroute window from TTL %d toward %s swept", pr.src.Agent.Addr, pr.dst, p.Start, p.Dst)
			}
			for j, req := range p.Reqs {
				if req.Kind == measure.KindPing || req.Kind == measure.KindTraceroutePkt || !d.Batch.Replies[j].Sent {
					continue
				}
				k := fmt.Sprint(req.Kind, req.VP.Addr, req.Src, req.Dst, req.Prespec)
				if sent[k] {
					t.Errorf("%s→%s sent %s twice", pr.src.Agent.Addr, pr.dst, k)
				}
				sent[k] = true
			}
		})
		results[i] = res
		sum = sum.Add(res.Probes)
		row.spoofBatches += res.SpoofBatches
		row.virtualUS += res.DurationUS
		switch res.Status {
		case core.StatusComplete:
			row.complete++
			if n := offTruth(d.Fabric, d.Topo, res); n > 0 {
				row.offTruthPaths++
				row.offTruthHops += n
			}
			dst, _ := d.Topo.HostOf(pr.dst)
			if !slices.Equal(ip2as.ASPath(d.TruthMapper, res.Addrs()), d.Fabric.ASPath(d.TrueReversePath(dst, pr.src.Agent.Addr))) {
				row.wrongAS++
			}
		case core.StatusAborted:
			row.aborted++
		default:
			row.failed++
		}
	}
	row.rr, row.spoofRR, row.traceroute, row.waitOutUS = sum.RR, sum.SpoofRR, sum.Traceroute, wait.waitOutUS
	if pool := d.Pool.Counters().Sub(before); pool != sum {
		t.Errorf("pool ledger %+v != sum of per-measurement probes %+v", pool, sum)
	}
	return row, results
}

// TestProbeCountGate pins the paper's currency in tier-1: two fixed slices
// of the benchmark's world — 1000 ASes, 30 sites, seed 31 — each measured
// serially by one revtr 2.0 engine of its own, must cost exactly these
// packets per kind, these spoofed rounds and this much virtual time
// (§5.2.4's currency: 10 s per round short of a reply, the round trips of
// one that holds them all), and end in exactly these states, with exactly
// so many complete paths off the ground truth and off its AS path. The
// counts are a pure function of the seed; a change that moves one of them
// is a change to what a reverse traceroute costs or finds, and says so here
// by editing the want row. The 766-pair "wide" slice, clean and lossy, is
// pinned by the root package's TestProbeCountGate, through the engine as
// the deployment builds it, and by TestRuleLedger's all-on rows.
//
// "distinct" is 8 sources x 8 destinations of their own: 64 pairs that
// share almost no hop across sources. "shared" is the same 8 sources x
// the same 16 destinations: what one source's sweep settles about a hop
// for every source (the engine cache's verdicts) shows here as an exact
// count.
//
// The background is booked too: the packets by kind that the 8 sources'
// atlas builds send. The classic build of n/6 entries sent 43 887 of
// them; the Doubletree build's larger atlas may not send more. Content
// keys left it where it stood: a clean world's background counts do not
// depend on which way a balancer sends a packet.
func TestProbeCountGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	w := worldOf(31, topology.Vintage2020)
	// The classic build read RR 17515, SpoofRR 7172 and Traceroute 19200.
	// The ingress plan of only the sites the survey saw within RR range
	// moved SpoofRR 6739 -> 6466: the atlas's RR-alias picker reads it.
	const classicBackground = 43887
	if want := (measure.Counters{RR: 14706, SpoofRR: 6466, Traceroute: 19394}); w.background != want {
		t.Errorf("atlas background moved: got %+v, want %+v", w.background, want)
	}
	if w.background.Total() > classicBackground {
		t.Errorf("atlas background %d packets, above the classic build's %d", w.background.Total(), classicBackground)
	}
	shared := w.pick(0, 16, w.srcs...)

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
		// Keying a probe on its content and the measurement's salt, not on
		// how many probes went before it, re-drew every per-packet balancer:
		// SpoofRR 379 -> 377, virtual time from 274120203 and waitOutUS from
		// 1881644339; nothing else moved.
		// The reach memo (a round led by the site whose own replies reached
		// the hop's AS in the fewest slots, a hedge held back whose replies
		// needed more than the lead's) moved SpoofRR 377 -> 366 and virtual
		// time from 274078470; nothing else moved.
		// The retry budget (no hedges behind a silent lead at no retries, a
		// window above an RR-silent hop giving up after two silent TTLs)
		// moved SpoofRR 366 -> 321 and Traceroute 211 -> 195; silence costs
		// no virtual time, and nothing else moved.
		// A direct probe that drew silence closing the stage at no retries
		// (no round behind it) moved SpoofRR 321 -> 315 and batches
		// 187 -> 181, and both time columns by those six leads' 10 s
		// timeouts; nothing else moved.
		// The ASes a source's own silent rounds found deaf, whose RR stages
		// then open no more, moved SpoofRR 315 -> 310 and batches 181 -> 176,
		// and both time columns by those five leads' 10 s timeouts; nothing
		// else moved.
		{"distinct", func(si int) []*topology.Host { return w.pick(si*29, 8, w.srcs[si]) },
			countRow{rr: 49, spoofRR: 310, traceroute: 195, complete: 42, aborted: 20, failed: 2,
				spoofBatches: 176, virtualUS: 163907508, waitOutUS: 1771644038,
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
		// Content keys moved RR 124 -> 125, SpoofRR 446 -> 445, Traceroute
		// 465 -> 464, batches 255 -> 254, virtual time from 197108796 and
		// waitOutUS from 2580034554; outcomes and accuracy did not move.
		// The reach memo moved SpoofRR 445 -> 387 and virtual time from
		// 196991919: eight sources probe the same hops, and what one's
		// replies said of a site's reach the next reads. Nothing else moved.
		// The retry budget moved SpoofRR 387 -> 357 and Traceroute
		// 464 -> 440, as above. The silent direct probe's close moved SpoofRR
		// 357 -> 349, batches 254 -> 246 and both time columns by 80 s, as
		// above. The learned deaf ASes moved SpoofRR 349 -> 346, batches
		// 246 -> 243 and both time columns by 30 s, as above; RR 125 -> 124
		// and both time columns by its round trip too: a sure witness shares
		// no silent verdict, and a far hop without one skips its direct probe.
		// One silence model (a hop some source or the survey heard answer is
		// never mute) moved RR 124 -> 123 and both time columns by that
		// probe's 86 411 us the same way: nothing else moved.
		{"shared", func(int) []*topology.Host { return shared },
			countRow{rr: 123, spoofRR: 346, traceroute: 440, complete: 90, aborted: 36, failed: 2,
				spoofBatches: 243, virtualUS: 84658974, waitOutUS: 2459834162,
				offTruthPaths: 4, offTruthHops: 8, wrongAS: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, _ := measureRow(t, w.d, w.d.Engine(core.Revtr20Options()), w.pairs(tc.dests)); got != tc.want {
				t.Fatalf("seed-31 slice moved:\n%s", got.diff(tc.want))
			}
		})
	}
}

// ledgerColumn is one of the rule ledger's slices: "wide" on a world, under
// batch-lossy's fault plan if lossy.
type ledgerColumn struct {
	name    string
	seed    int64
	vintage topology.Vintage
	lossy   bool
}

// ledgerColumns are the rule ledger's slices: "wide" on three worlds — the
// benchmark's, another seed, and the benchmark's seed before the
// flattening (Fig 11) — and, on the benchmark's, "wide-lossy": under
// batch-lossy's fault plan (2 % link loss, ICMP rate limiting, the last
// three spoofing sites blacked out, two retries), where silence may be loss.
var ledgerColumns = []ledgerColumn{
	{"seed 31", 31, topology.Vintage2020, false},
	{"seed 31, lossy", 31, topology.Vintage2020, true},
	{"seed 57", 57, topology.Vintage2020, false},
	{"2016 era", 31, topology.Vintage2016, false},
}

// TestRuleLedger is what each knowledge rule buys today, after every rule
// that came later, on worlds the rules were not tuned on. Each column's
// pairs are measured by a fresh revtr 2.0 engine per row: every rule on;
// each rule of core.RuleNames alone switched off (SetRulesOff), so a rule
// added with its bit has its row; and the segment store on. Every row is a
// countRow whose moved column counts the pairs whose Status or hops differ
// from the all-on row's; under -v each row names 20 of its moved pairs,
// those whose Status or off-truth hops moved first.
//
// The all-on rows of the benchmark's world are the root package count
// gate's "wide" and "wide-lossy" slices. Every cell is pinned by
// testdata/rule_ledger.md, which the test renders and compares byte for
// byte (-update rewrites it). A rule whose row equals the all-on row on
// every column buys nothing anywhere and fails the test; the segment store
// is reported, not judged.
func TestRuleLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 1000-AS worlds")
	}
	rows := append(append([]string{"all on"}, core.RuleNames[:]...), "segment store on")
	cells := make([][]countRow, len(rows)) // by row, then column
	for r := range cells {
		cells[r] = make([]countRow, len(ledgerColumns))
	}
	// The worlds side by side, each world's columns in turn: a column sets
	// its world's faults and reads its pool's ledger.
	var wg sync.WaitGroup
	for first := 0; first < len(ledgerColumns); {
		end := first + 1
		for end < len(ledgerColumns) && ledgerColumns[end].seed == ledgerColumns[first].seed &&
			ledgerColumns[end].vintage == ledgerColumns[first].vintage {
			end++
		}
		wg.Add(1)
		go func(first, end int) {
			defer wg.Done()
			for c := first; c < end; c++ {
				for r, row := range ledgerColumns[c].measure(t, rows) {
					cells[r][c] = row
				}
			}
		}(first, end)
		first = end
	}
	wg.Wait()

	for i, name := range core.RuleNames {
		if slices.Equal(cells[i+1], cells[0]) {
			t.Errorf("%s: the row equals the all-on row on every world: the rule buys nothing", name)
		}
	}

	got := renderLedger(rows, cells)
	const golden = "testdata/rule_ledger.md"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s is not the ledger measured (go test -run TestRuleLedger -update rewrites it); measured:\n%s", golden, got)
	}
}

// world is the column's world, under batch-lossy's fault plan if the column
// is lossy, until undo takes the plan off again.
func (col ledgerColumn) world(t *testing.T) (w *world, undo func(), ok bool) {
	w = worldOf(col.seed, col.vintage)
	if !col.lossy {
		return w, func() {}, true
	}
	retry := w.d.Pool.Retry()
	undo = func() {
		w.d.Fabric.SetFaults(nil) // no world has faults of its own
		w.d.Pool.SetRetry(retry)
	}
	_, err := w.d.InjectFaults("seed=31,loss=0.02,icmp-frac=0.3,icmp-pass=0.5", 3, 0, 2)
	if err != nil {
		t.Error(err) // maybe on a goroutine of TestRuleLedger's
	}
	return w, undo, err == nil
}

// measure measures the column's pairs once per row of rows, each time by
// a fresh engine.
func (col ledgerColumn) measure(t *testing.T, rows []string) []countRow {
	w, undo, ok := col.world(t)
	defer undo()
	if !ok {
		return make([]countRow, len(rows))
	}
	pairs := w.wide()
	out := make([]countRow, len(rows))
	var on []*core.Result
	for r, rule := range rows {
		o := core.Revtr20Options()
		if rule == "segment store on" {
			o.SegmentStore = segments.New(segments.Options{TTLUS: core.CacheTTLUS})
		}
		eng := w.d.Engine(o)
		if r > 0 && r <= len(core.RuleNames) {
			eng.SetRulesOff(1 << (r - 1))
		}
		row, results := measureRow(t, w.d, eng, pairs)
		if r == 0 {
			on = results
		}
		var named []string // the moved pairs, those whose Status or off-truth hops moved first
		front := 0
		for i, res := range results {
			if res.Status == on[i].Status && slices.Equal(res.Addrs(), on[i].Addrs()) {
				continue
			}
			if row.moved++; !testing.Verbose() {
				continue
			}
			was, is := offTruth(w.d.Fabric, w.d.Topo, on[i]), offTruth(w.d.Fabric, w.d.Topo, res)
			line := fmt.Sprintf("%s, %s: %s→%s %s → %s, off-truth hops %d → %d", col.name, rule,
				pairs[i].src.Agent.Addr, pairs[i].dst, on[i].Status, res.Status, was, is)
			if res.Status != on[i].Status || was != is {
				named = slices.Insert(named, front, line)
				front++
			} else {
				named = append(named, line)
			}
		}
		for _, line := range named[:min(20, len(named))] {
			t.Log(line)
		}
		out[r] = row
	}
	return out
}

// renderLedger renders the ledger's cells as markdown: what each row adds
// to the all-on row, then every column of every cell.
func renderLedger(rows []string, cells [][]countRow) string {
	var sb strings.Builder
	sb.WriteString("# The rule ledger\n\nGenerated by `TestRuleLedger` (`internal/core/counts_test.go`); " +
		"`go test ./internal/core -run TestRuleLedger -update` rewrites it. Each column is 8 sources x 96 " +
		"destinations (766 pairs on seed 31) of a world of 1000 ASes and 30 sites, measured by revtr 2.0 " +
		"with every knowledge rule on, one rule off, or the segment store on.\n\n" +
		"A cell is the packets (RR + SpoofRR + Traceroute) the row adds to the all-on row, its completions, " +
		"and the pairs whose Status or hops moved.\n\n| row |")
	for _, col := range ledgerColumns {
		fmt.Fprintf(&sb, " %s |", col.name)
	}
	sb.WriteString("\n|---|" + strings.Repeat("---|", len(ledgerColumns)) + "\n")
	for r, name := range rows {
		fmt.Fprintf(&sb, "| %s |", name)
		for c, cell := range cells[r] {
			if r == 0 {
				fmt.Fprintf(&sb, " %d pkts, %d compl |", cell.packets(), cell.complete)
			} else {
				fmt.Fprintf(&sb, " %+d, %d, %d moved |", int64(cell.packets())-int64(cells[0][c].packets()), cell.complete, cell.moved)
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\nEvery column of every cell:\n\n" +
		"| column | row | RR | SpoofRR | Traceroute | complete | aborted | failed | batches | virtual us | waited out us | off-truth paths | off-truth hops | wrong AS | moved |\n" +
		"|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for c, col := range ledgerColumns {
		for r, name := range rows {
			x := cells[r][c]
			fmt.Fprintf(&sb, "| %s | %s | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d |\n", col.name, name,
				x.rr, x.spoofRR, x.traceroute, x.complete, x.aborted, x.failed, x.spoofBatches,
				x.virtualUS, x.waitOutUS, x.offTruthPaths, x.offTruthHops, x.wrongAS, x.moved)
		}
	}
	return sb.String()
}
