package revtr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
)

// TestProbeCountGate pins the paper's currency in tier-1: a fixed
// 64-pair slice (8 sources x 8 destinations) of the benchmark's world —
// 1000 ASes, 30 sites, seed 31 — measured serially by one revtr 2.0
// engine must cost exactly these packets per kind, these spoofed batches
// and this much virtual time (§5.2.4's currency: 10 s per batch), and end
// in exactly these states. The counts are a pure function of the seed; a
// change that moves one of them is a change to what a reverse traceroute
// costs or finds, and says so here by editing the want row.
func TestProbeCountGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1000-AS world")
	}
	type row struct {
		rr, spoofRR, traceroute   uint64
		complete, aborted, failed int
		spoofBatches              int
		virtualUS                 int64
	}
	// RR and the three tallies have stood since PR 15. PR 16 (the
	// symmetry-stage traceroute starts at the tail) moved Traceroute
	// alone, 1258 -> 772. PR 17 (a spoofed sweep ends at its first silent
	// batch; an RR stage that revealed nothing is cached) moved SpoofRR
	// 811 -> 648, and the two columns added with it from the 303 batches
	// and 3070389866 virtual us measured on its parent.
	want := row{rr: 229, spoofRR: 648, traceroute: 772, complete: 38, aborted: 24, failed: 2,
		spoofBatches: 240, virtualUS: 2440393092}

	cfg := DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := Build(cfg)
	eng := d.Engine(core.Revtr20Options())
	dests := d.OnePerPrefix()

	var got row
	var sum measure.Counters
	before := d.Pool.Counters()
	for si := 0; si < 8; si++ {
		src := d.NewSource(d.PickSourceHost(si * 17))
		for k, n := 0, 0; n < 8; k++ {
			dst := dests[(si*29+k*211)%len(dests)]
			if dst.AS == src.Agent.AS {
				continue
			}
			n++
			res := eng.MeasureReverse(context.Background(), src, dst.Addr)
			sum = sum.Add(res.Probes)
			got.spoofBatches += res.SpoofBatches
			got.virtualUS += res.DurationUS
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
	if got != want {
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
		t.Fatalf("64-pair seed-31 slice moved:\n%s", sb.String())
	}
}
