package revtr

import (
	"context"

	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
)

func buildSmall(t testing.TB) *Deployment {
	t.Helper()
	cfg := DefaultConfig(300)
	cfg.Seed = 3
	cfg.Topology.Seed = 3
	return Build(cfg)
}

// routersOf maps measured hop addresses to ground-truth routers,
// dropping unmappable hops (private addresses, host addresses).
func routersOf(d *Deployment, addrs []ipv4.Addr) []topology.RouterID {
	var out []topology.RouterID
	for _, a := range addrs {
		if r, ok := d.Topo.RouterOf(a); ok {
			if len(out) == 0 || out[len(out)-1] != r {
				out = append(out, r)
			}
		}
	}
	return out
}

func TestRevtr20EndToEnd(t *testing.T) {
	d := buildSmall(t)
	src := d.NewSource(d.PickSourceHost(0))
	eng := d.Engine(core.Revtr20Options())

	dests := d.OnePerPrefix()
	completed, attempted := 0, 0
	exactAS, matched := 0, 0
	for i := 0; i < len(dests) && attempted < 120; i += 3 {
		dst := dests[i]
		if dst.AS == src.Agent.AS {
			continue
		}
		attempted++
		res := eng.MeasureReverse(context.Background(), src, dst.Addr)
		if res.Status != core.StatusComplete {
			continue
		}
		completed++
		if res.Hops[0].Addr != dst.Addr {
			t.Fatalf("path does not start at destination: %v", res.Addrs())
		}
		if res.Hops[len(res.Hops)-1].Addr != src.Agent.Addr {
			t.Fatalf("path does not end at source: %v", res.Addrs())
		}
		if res.InterdomainAssumed > 0 {
			t.Fatalf("revtr 2.0 made an interdomain symmetry assumption")
		}
		// AS-level accuracy vs the ground-truth reverse path.
		truth := d.TrueReversePath(dst, src.Agent.Addr)
		if truth == nil {
			continue
		}
		matched++
		trueAS := d.Fabric.ASPath(truth)
		gotAS := asPathTruth(d, res.Addrs())
		if equalASPaths(gotAS, trueAS) {
			exactAS++
		}
	}
	if attempted == 0 {
		t.Fatal("no destinations attempted")
	}
	frac := float64(completed) / float64(attempted)
	t.Logf("completed %d/%d (%.0f%%), exact AS match %d/%d", completed, attempted, 100*frac, exactAS, matched)
	if frac < 0.30 {
		t.Errorf("completion rate %.2f too low", frac)
	}
	if matched > 10 && float64(exactAS)/float64(matched) < 0.55 {
		t.Errorf("AS-level exact-match rate %.2f too low", float64(exactAS)/float64(matched))
	}
}

// asPathTruth maps a measured address path to ASes using ground truth.
func asPathTruth(d *Deployment, addrs []ipv4.Addr) []topology.ASN {
	var out []topology.ASN
	for _, a := range addrs {
		asn, ok := d.TruthMapper.ASOf(a)
		if !ok {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != asn {
			out = append(out, asn)
		}
	}
	return out
}

func equalASPaths(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRevtr10CompletesEverythingItCan(t *testing.T) {
	d := buildSmall(t)
	src := d.NewSource(d.PickSourceHost(1))
	eng := d.Engine(core.Revtr10Options())
	dests := d.OnePerPrefix()
	aborted := 0
	n := 0
	for i := 0; i < len(dests) && n < 40; i += 7 {
		if dests[i].AS == src.Agent.AS {
			continue
		}
		n++
		res := eng.MeasureReverse(context.Background(), src, dests[i].Addr)
		if res.Status == core.StatusAborted {
			aborted++
		}
	}
	if aborted > 0 {
		t.Errorf("revtr 1.0 aborted %d measurements; it must always assume symmetry", aborted)
	}
}

func TestRevtr20FewerProbesThan10(t *testing.T) {
	d := buildSmall(t)
	srcHost := d.PickSourceHost(2)
	src := d.NewSource(srcHost)
	e20 := d.Engine(core.Revtr20Options())
	e10 := d.Engine(core.Revtr10Options())

	dests := d.OnePerPrefix()
	var p20, p10 uint64
	n := 0
	for i := 0; i < len(dests) && n < 50; i += 5 {
		if dests[i].AS == src.Agent.AS {
			continue
		}
		n++
		r20 := e20.MeasureReverse(context.Background(), src, dests[i].Addr)
		r10 := e10.MeasureReverse(context.Background(), src, dests[i].Addr)
		p20 += r20.Probes.Total()
		p10 += r10.Probes.Total()
	}
	t.Logf("probes: revtr2.0=%d revtr1.0=%d", p20, p10)
	if p20 >= p10 {
		t.Errorf("revtr 2.0 used more probes (%d) than revtr 1.0 (%d)", p20, p10)
	}
}

func TestCacheReducesProbes(t *testing.T) {
	d := buildSmall(t)
	src := d.NewSource(d.PickSourceHost(3))
	eng := d.Engine(core.Revtr20Options())
	dst := d.OnePerPrefix()[10]
	if dst.AS == src.Agent.AS {
		dst = d.OnePerPrefix()[11]
	}
	r1 := eng.MeasureReverse(context.Background(), src, dst.Addr)
	r2 := eng.MeasureReverse(context.Background(), src, dst.Addr)
	if r2.Probes.RR+r2.Probes.SpoofRR > r1.Probes.RR+r1.Probes.SpoofRR {
		t.Errorf("second measurement used more RR probes (%d vs %d)",
			r2.Probes.RR+r2.Probes.SpoofRR, r1.Probes.RR+r1.Probes.SpoofRR)
	}
}

func TestAbortedMeansInterdomain(t *testing.T) {
	d := buildSmall(t)
	src := d.NewSource(d.PickSourceHost(4))
	eng := d.Engine(core.Revtr20Options())
	dests := d.OnePerPrefix()
	sawAbort := false
	n := 0
	for i := 0; i < len(dests) && n < 150 && !sawAbort; i += 2 {
		if dests[i].AS == src.Agent.AS {
			continue
		}
		n++
		res := eng.MeasureReverse(context.Background(), src, dests[i].Addr)
		if res.Status == core.StatusAborted {
			sawAbort = true
			if res.InterdomainAssumed > 0 {
				t.Error("aborted result should not contain interdomain assumptions")
			}
		}
	}
	t.Logf("saw abort: %v (over %d attempts)", sawAbort, n)
}

// TestSpoofedBatchesCostTenSeconds: a spoofed batch short of a reply costs
// the 10 s timeout; one that holds a reply to every request costs its
// slowest round trip. Driven by hand so each spoofed delivery is classed
// as it goes by, and both classes must turn up.
func TestSpoofedBatchesCostTenSeconds(t *testing.T) {
	d := buildSmall(t)
	src := d.NewSource(d.PickSourceHost(5))
	eng := d.Engine(core.Revtr20Options())
	dests := d.OnePerPrefix()
	const timeoutUS = 10_000_000
	complete, timeouts := 0, 0
	for i := 0; i < len(dests) && i < 200; i++ {
		if dests[i].AS == src.Agent.AS {
			continue
		}
		batches := 0
		var floorUS int64
		mm := eng.Begin(context.Background(), src, dests[i].Addr)
		for p := mm.Next(); p != nil; p = mm.Next() {
			dl := eng.ExecPending(mm.Context(), p)
			if p.Spoofed {
				batches++
				if holdsEveryReply(dl.Batch) {
					complete++
					floorUS += dl.Batch.MaxRTTUS
				} else {
					timeouts++
					floorUS += timeoutUS
				}
			}
			mm.Deliver(dl)
		}
		res := mm.Result()
		if res.SpoofBatches != batches {
			t.Fatalf("%s: SpoofBatches = %d, the measurement suspended on %d spoofed batches", dests[i].Addr, res.SpoofBatches, batches)
		}
		if res.DurationUS < floorUS {
			t.Fatalf("%s: duration %dus, below the %dus its %d spoofed batches waited", dests[i].Addr, res.DurationUS, floorUS, batches)
		}
	}
	if complete == 0 || timeouts == 0 {
		t.Fatalf("spoofed batches: %d complete, %d short of a reply; want some of each", complete, timeouts)
	}
}

// TestInjectFaults: the fault wiring revtr-server and revtr-campaign
// share blacks out spoof-capable sites from the end of the site list,
// never one of the spared leading sites, attaches the plan to the fabric
// (a dark site sends nothing) and the retry policy to the pool, and
// rejects a malformed spec before touching either.
func TestInjectFaults(t *testing.T) {
	d := buildSmall(t)
	if _, err := d.InjectFaults("loss=2", 1, 0, 1); err == nil {
		t.Fatal("malformed spec accepted")
	}
	if d.Pool.Retry().Max != 0 {
		t.Fatal("a rejected spec changed the retry policy")
	}
	const spare = 4
	spared := map[ipv4.Addr]bool{}
	for _, a := range d.SiteAgents[:spare] {
		spared[a.Addr] = true
	}
	plan, err := d.InjectFaults("loss=0.01", 3, spare, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Blackouts) != 3 {
		t.Fatalf("%d sites blacked out, want 3", len(plan.Blackouts))
	}
	byAddr := map[ipv4.Addr]measure.Agent{}
	for _, a := range d.SiteAgents {
		byAddr[a.Addr] = a
	}
	dst := d.OnePerPrefix()[0].Addr
	for i, b := range plan.Blackouts {
		site := byAddr[b.Addr]
		if spared[b.Addr] || !site.CanSpoof {
			t.Fatalf("blacked out %s: spared %v, spoof-capable %v", b.Addr, spared[b.Addr], site.CanSpoof)
		}
		rep := d.Pool.Do(context.Background(), []probe.Request{{Kind: measure.KindPing, VP: site, Dst: dst, Seq: uint64(i + 1)}})
		if rep.Replies[0].Sent {
			t.Fatalf("dark site %s sent a probe: the plan is not on the fabric", b.Addr)
		}
	}
	if got := d.Pool.Retry().Max; got != 2 {
		t.Fatalf("pool retries %d, want 2", got)
	}
	if plan, _ := d.InjectFaults("", len(d.SiteAgents), len(d.SiteAgents), 0); len(plan.Blackouts) != 0 {
		t.Fatalf("blacked out %d sites with every site spared", len(plan.Blackouts))
	}
}
