package fabric

import (
	"sync"
	"sync/atomic"
	"testing"

	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// addTestAnycast announces 203.0.113.0/24 from two transit attachment
// points of f's topology and returns the service address.
func addTestAnycast(f *Fabric) ipv4.Addr {
	topo := f.Topo
	transits := topo.ASesByTier(topology.Transit)
	ann := &bgp.Announcement{Prefix: ipv4.MustParsePrefix("203.0.113.0/24"), Origin: topology.ASN(len(topo.ASes))}
	g := &AnycastGroup{Prefix: ann.Prefix, ServiceAddr: ipv4.MustParseAddr("203.0.113.1")}
	for i, via := range []topology.ASN{transits[0], transits[len(transits)-1]} {
		name := string(rune('A' + i))
		ann.Sites = append(ann.Sites, bgp.AnnSite{Name: name, Neighbors: []bgp.AnnNeighbor{{ASN: via, Rel: topology.RelCustomer}}})
		g.Sites = append(g.Sites, AnycastSite{Name: name, Via: via, Router: topo.ASes[via].Routers[0]})
	}
	g.Routes = bgp.Compute(topo, ann, bgp.DefaultTieBreak(5), f.Routing.Pref())
	f.AddAnycast(g)
	return g.ServiceAddr
}

// TestForwardingStepAllocatesNothing holds one forwarding decision to zero
// heap allocations on each of its arms, once the trees it reads are built.
func TestForwardingStepAllocatesNothing(t *testing.T) {
	f := testFabric(t, 300)
	svc := addTestAnycast(f)
	src := pickHost(f, 0, respHost)
	dst := pickHost(f, 3, differentAS(src))
	// A router of dst's AS other than its access router: the intra-AS arm.
	inside := topology.RouterID(topology.None)
	for _, r := range f.Topo.ASes[dst.AS].Routers {
		if r != dst.Router {
			inside = r
			break
		}
	}
	if inside == topology.None {
		t.Fatal("destination AS has a single router")
	}
	c := &walkCtx{res: &Result{}, flowID: 1, nonce: 1}
	for _, arm := range []struct {
		name string
		cur  topology.RouterID
		to   ipv4.Addr
	}{
		{"inter-AS", src.Router, dst.Addr},
		{"intra-AS", inside, dst.Addr},
		{"anycast", src.Router, svc},
	} {
		rt := f.resolve(arm.to)
		if _, ok := f.nextHopIface(arm.cur, &rt, src.Addr, true, c); !ok {
			t.Fatalf("%s: no next hop", arm.name)
		}
		if n := testing.AllocsPerRun(200, func() { f.nextHopIface(arm.cur, &rt, src.Addr, true, c) }); n != 0 {
			t.Errorf("%s: nextHopIface allocates %.1f times per call, want 0", arm.name, n)
		}
	}
}

// TestInjectAllocCeiling: a cross-AS RR ping and its reply cost the Result,
// its trace and deliveries, and the reply packet — not a slice per hop.
func TestInjectAllocCeiling(t *testing.T) {
	f := testFabric(t, 300)
	src := pickHost(f, 0, respHost)
	dst := pickHost(f, 3, differentAS(src))
	const runs = 200
	pkts := make([][]byte, runs+1) // AllocsPerRun warms up with one extra call
	for i := range pkts {
		pkts[i] = ipv4.BuildEchoRequest(src.Addr, dst.Addr, uint16(i), 1, 64, ipv4.RRSlots, nil)
	}
	i := 0
	replied := true
	n := testing.AllocsPerRun(runs, func() {
		res := f.Inject(src.Router, pkts[i], 0, uint64(i), uint64(i))
		replied = replied && len(res.Deliveries) == 2
		i++
	})
	if !replied {
		t.Fatal("a ping went unanswered: the ceiling would not cover the reply walk")
	}
	if n > 8 {
		t.Errorf("Inject allocates %.1f times per cross-AS RR ping, want <= 8", n)
	}
}

// TestWalksRaceInvalidate walks packets from four goroutines while a fifth
// invalidates every cached route in a loop: under -race nothing may be
// read half-built, no walk may panic, and the packet ledger must balance.
func TestWalksRaceInvalidate(t *testing.T) {
	f := testFabric(t, 300)
	f.SetFaults(&faults.Plan{Seed: 4, LinkLoss: 0.03, ICMPFrac: 0.4, ICMPPass: 0.5, FlapFrac: 0.1})
	var hosts []*topology.Host
	for hi := 0; hi < len(f.Topo.Hosts) && len(hosts) < 40; hi += 7 {
		hosts = append(hosts, &f.Topo.Hosts[hi])
	}
	var walkers sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < 4; w++ {
		walkers.Add(1)
		go func(w int) {
			defer walkers.Done()
			// Each walker starts elsewhere in the host list.
			conservationWorkload(f, append(hosts[w*5:len(hosts):len(hosts)], hosts[:w*5]...))
		}(w)
	}
	invalidated := make(chan int)
	go func() {
		n := 0
		for !done.Load() {
			f.InvalidateRoutes()
			n++
		}
		invalidated <- n
	}()
	walkers.Wait()
	done.Store(true)
	if n := <-invalidated; n == 0 {
		t.Fatal("no invalidation ran beside the walks")
	}
	inj, del, drop, abs := f.PacketsInjected(), f.PacketsDelivered(), f.PacketsDropped(), f.PacketsAbsorbed()
	if inj == 0 || inj != del+drop+abs {
		t.Fatalf("conservation violated: injected=%d != delivered=%d + dropped=%d + absorbed=%d", inj, del, drop, abs)
	}
}

// BenchmarkInjectPingCrossASParallel is BenchmarkInjectPingCrossAS from
// GOMAXPROCS goroutines on one fabric (run with -cpu 1,2): what the walks
// share — tree caches, counters — must not serialize them.
func BenchmarkInjectPingCrossASParallel(b *testing.B) {
	f := testFabric(b, 300)
	src := pickHost(f, 0, respHost)
	dst := pickHost(f, 3, differentAS(src))
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1)
			pkt := ipv4.BuildEchoRequest(src.Addr, dst.Addr, uint16(i), 1, 64, ipv4.RRSlots, nil)
			f.Inject(src.Router, pkt, 0, i, i)
		}
	})
}

// BenchmarkInjectPingRotatingAS pings one host in each AS in turn, so the
// request tree is a different one every packet: 300 destination ASes
// against testFabric's 64-tree cache exercise the BGP tree cache's miss
// and eviction path, which the single-pair benchmarks bypass.
func BenchmarkInjectPingRotatingAS(b *testing.B) {
	f := testFabric(b, 300)
	src := pickHost(f, 0, respHost)
	var dsts []*topology.Host
	seen := map[topology.ASN]bool{src.AS: true}
	for hi := range f.Topo.Hosts {
		if h := &f.Topo.Hosts[hi]; !seen[h.AS] {
			seen[h.AS] = true
			dsts = append(dsts, h)
		}
	}
	if len(dsts) <= 128 {
		b.Fatalf("only %d destination ASes", len(dsts))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := ipv4.BuildEchoRequest(src.Addr, dsts[i%len(dsts)].Addr, uint16(i), 1, 64, ipv4.RRSlots, nil)
		f.Inject(src.Router, pkt, 0, uint64(i), uint64(i))
	}
}
