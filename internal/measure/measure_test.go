package measure_test

import (
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

func TestPingCountsAndResponds(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	dst := e.ResponsiveHost(0, src.AS)
	r := e.Prober.Ping(src, dst.Addr)
	if !r.Alive {
		t.Fatal("responsive host did not answer ping")
	}
	if r.RTTUS <= 0 {
		t.Error("zero RTT")
	}
	if e.Prober.Count.Ping != 1 {
		t.Errorf("ping count %d", e.Prober.Count.Ping)
	}
}

func TestRRPingRecordsHops(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	for i := 0; i < 30; i++ {
		dst := e.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		r := e.Prober.RRPing(src, dst.Addr)
		if !r.Responded {
			continue
		}
		if len(r.Recorded) == 0 {
			t.Fatal("responded but no recorded hops")
		}
		if len(r.Recorded) > ipv4.RRSlots {
			t.Fatalf("recorded %d > 9", len(r.Recorded))
		}
		return
	}
	t.Skip("no RR-reachable destination")
}

func TestSpoofedRRRequiresSpoofCapability(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	dst := e.ResponsiveHost(0, src.AS)
	noSpoof := src
	noSpoof.CanSpoof = false
	before := e.Prober.Count.SpoofRR
	r := e.Prober.SpoofedRRPing(noSpoof, src.Addr, dst.Addr)
	if r.Responded {
		t.Error("spoofed probe sent from non-spoofing agent")
	}
	if e.Prober.Count.SpoofRR != before {
		t.Error("counted a probe that was never sent")
	}
}

func TestSpoofedRRReachesSpoofedSource(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	for i := 0; i < 20; i++ {
		dst := e.ResponsiveHost(i*2, src.AS)
		if dst == nil {
			break
		}
		for _, site := range e.Sites {
			if site.AS == src.AS || site.AS == dst.AS {
				continue
			}
			r := e.Prober.SpoofedRRPing(site, src.Addr, dst.Addr)
			if r.Responded {
				if len(r.Recorded) == 0 {
					t.Fatal("no RR stamps in spoofed reply")
				}
				return
			}
		}
	}
	t.Skip("no spoofed probe got through")
}

func TestTraceroute(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	for i := 0; i < 20; i++ {
		dst := e.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		tr := e.Prober.Traceroute(src, dst.Addr)
		if !tr.ReachedDst {
			continue
		}
		hops := tr.HopAddrs()
		if len(hops) < 2 {
			t.Fatalf("too few hops: %v", hops)
		}
		if hops[len(hops)-1] != dst.Addr {
			t.Fatalf("last hop %s != destination %s", hops[len(hops)-1], dst.Addr)
		}
		// Paris property: rerunning gives identical hops.
		tr2 := e.Prober.Traceroute(src, dst.Addr)
		h2 := tr2.HopAddrs()
		if len(h2) != len(hops) {
			t.Fatal("traceroute not stable")
		}
		for j := range hops {
			if hops[j] != h2[j] {
				t.Fatal("traceroute hops differ between runs")
			}
		}
		return
	}
	t.Skip("no reachable destination")
}

func TestTSPing(t *testing.T) {
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	// Find a responsive router on the forward path and test prespec
	// semantics: probing [dst, dst] should stamp at most the first.
	for i := 0; i < 30; i++ {
		dst := e.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		r := e.Prober.TSPing(src, dst.Addr, []ipv4.Addr{dst.Addr, dst.Addr})
		if !r.Responded {
			continue
		}
		if len(r.Stamped) != 2 {
			t.Fatalf("stamped len %d", len(r.Stamped))
		}
		return
	}
	t.Skip("no TS-responsive destination")
}

func TestCountersArithmetic(t *testing.T) {
	a := measure.Counters{Ping: 5, RR: 3, SpoofRR: 2, TS: 1, SpoofTS: 1, Traceroute: 10}
	b := measure.Counters{Ping: 1, RR: 1}
	d := a.Sub(b)
	if d.Ping != 4 || d.RR != 2 || d.Total() != 20 {
		t.Errorf("sub wrong: %+v total %d", d, d.Total())
	}
	var c measure.Counters
	c = c.Add(a)
	c = c.Add(b)
	if c.Total() != a.Total()+b.Total() {
		t.Error("add wrong")
	}
	if a.Ping != 5 || b.Ping != 1 {
		t.Error("Add must not mutate its operands")
	}
}

func TestClock(t *testing.T) {
	e := simtest.New(t, 300, 2)
	e.Prober.SetNow(100)
	e.Prober.Advance(50)
	if e.Prober.Now() != 150 {
		t.Errorf("clock = %d", e.Prober.Now())
	}
}

// TestReverseHops pins the TTL → hops reading at its edges: a reply starts
// at 64, cannot arrive with 0, and one above 64 started somewhere else. A
// real reply must read as the distance its own path has: a direct RR
// reply's, and a spoofed one's to the same source, come back over the same
// reverse path and agree.
func TestReverseHops(t *testing.T) {
	for _, tc := range []struct {
		ttl  uint8
		want int
	}{{0, -1}, {1, 63}, {63, 1}, {64, 0}, {65, -1}, {128, -1}, {255, -1}} {
		if got := measure.ReverseHops(tc.ttl); got != tc.want {
			t.Errorf("ReverseHops(%d) = %d, want %d", tc.ttl, got, tc.want)
		}
	}
	e := simtest.New(t, 300, 2)
	src := e.Agent(e.SourceHost(0))
	agreed := 0
	for i := 0; i < 30; i++ {
		dst := e.ResponsiveHost(i, src.AS)
		if dst == nil {
			break
		}
		direct := e.Prober.RRPing(src, dst.Addr)
		if !direct.Responded {
			continue
		}
		hops := measure.ReverseHops(direct.ReplyTTL)
		if hops < 1 {
			t.Fatalf("%s: reply TTL %d reads as %d hops from another AS", dst.Addr, direct.ReplyTTL, hops)
		}
		for _, vp := range e.Sites {
			if sp := e.Prober.SpoofedRRPing(vp, src.Addr, dst.Addr); sp.Responded {
				if got := measure.ReverseHops(sp.ReplyTTL); got != hops {
					t.Fatalf("%s: spoofed reply via %s reads %d hops, the direct one %d", dst.Addr, vp.Addr, got, hops)
				}
				agreed++
			}
		}
	}
	if agreed == 0 {
		t.Fatal("no destination answered a direct and a spoofed probe")
	}
}
