package revtr_test

// Fabric benchmark corpus (ROADMAP item 1's `fabric` layer): what one
// router hop and one injected packet cost in the world revtr-server
// builds by default, at GOMAXPROCS 1 and 2, and how often a packet finds
// its BGP trees cached. `make bench` regenerates BENCH_fabric.json via
// TestWriteFabricBenchJSON (gated on the BENCH_FABRIC_JSON env var).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"revtr"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

type fabricBenchRow struct {
	GoMaxProcs      int     `json:"gomaxprocs"`
	Packets         int     `json:"packets"`
	Hops            uint64  `json:"hops"`
	NsPerHop        float64 `json:"ns_per_hop"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	BytesPerPacket  float64 `json:"bytes_per_packet"`
}

type fabricBenchRun struct {
	Commit       string           `json:"commit"`
	Rows         []fabricBenchRow `json:"rows"`
	TreeHitRatio float64          `json:"tree_cache_hit_ratio"`
}

// fabricBenchParent is this test's output on the commit before the
// forwarding step was made allocation- and lock-free, same box, same
// hour: the "before" the checked-in file shows beside the regenerated
// rows.
var fabricBenchParent = fabricBenchRun{
	Commit: "fb3e899 (PR 14)",
	Rows: []fabricBenchRow{
		{GoMaxProcs: 1, Packets: 24000, Hops: 663797, NsPerHop: 4180.4, AllocsPerPacket: 75.27, BytesPerPacket: 24631.8},
		{GoMaxProcs: 2, Packets: 24000, Hops: 663797, NsPerHop: 2088.2, AllocsPerPacket: 73.09, BytesPerPacket: 20152.6},
	},
	TreeHitRatio: 0.2744,
}

// TestWriteFabricBenchJSON regenerates BENCH_fabric.json. Gated on the
// BENCH_FABRIC_JSON env var (the output path) so `go test ./...` stays
// side-effect free; `make bench` sets it.
func TestWriteFabricBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_FABRIC_JSON")
	if path == "" {
		t.Skip("set BENCH_FABRIC_JSON=<path> to write the fabric benchmark corpus")
	}
	cfg := revtr.DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed = 31, 31
	cfg.SkipSurvey = true
	d := revtr.Build(cfg)
	dests := d.OnePerPrefix()

	const packets = 24000
	type flow struct {
		at       topology.RouterID
		src, dst ipv4.Addr
		srcAS    topology.ASN
		dstAS    topology.ASN
	}
	flows := make([]flow, packets)
	for i := range flows {
		vp, h := d.SiteAgents[i%len(d.SiteAgents)], dests[i*131%len(dests)]
		flows[i] = flow{at: vp.Router, src: vp.Addr, dst: h.Addr, srcAS: vp.AS, dstAS: h.AS}
	}
	// pass injects every flow once from procs goroutines and returns the
	// wall time and the heap allocations and bytes it took. Packets are
	// built outside the measured region: a walk rewrites its packet in
	// place, so each pass needs fresh ones.
	pass := func(procs int) (wall time.Duration, allocs, bytes uint64) {
		pkts := make([][]byte, packets)
		for i, fl := range flows {
			rr := 0
			if i%2 == 1 {
				rr = ipv4.RRSlots
			}
			pkts[i] = ipv4.BuildEchoRequest(fl.src, fl.dst, uint16(i), 1, 64, rr, nil)
		}
		var m0, m1 runtime.MemStats
		var wg sync.WaitGroup
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now() //revtr:wallclock benchmark timing
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < packets; i += procs {
					d.Fabric.Inject(flows[i].at, pkts[i], 0, uint64(i), uint64(i))
				}
			}(w)
		}
		wg.Wait()
		wall = time.Since(start) //revtr:wallclock benchmark timing
		runtime.ReadMemStats(&m1)
		return wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}

	pass(1) // every tree the cache will hold is built

	// Hit ratio of the tree lookups a packet starts with — toward its
	// destination's AS, and toward its source's for the reply — told from
	// outside by pointer identity: a tree that was recomputed since the
	// last look is a different object. An AS's first look only records.
	last := make(map[topology.ASN]*bgp.Tree)
	hits, looks := 0, 0
	for _, fl := range flows {
		for _, as := range []topology.ASN{fl.dstAS, fl.srcAS} {
			tr := d.Routing.TreeTo(as)
			if seen, ok := last[as]; ok {
				looks++
				if seen == tr {
					hits++
				}
			}
			last[as] = tr
		}
	}
	run := fabricBenchRun{Commit: "this tree", TreeHitRatio: float64(hits) / float64(looks)}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		hops0 := d.Fabric.HopsForwarded()
		wall, allocs, bytes := pass(procs)
		hops := d.Fabric.HopsForwarded() - hops0
		row := fabricBenchRow{
			GoMaxProcs:      procs,
			Packets:         packets,
			Hops:            hops,
			NsPerHop:        float64(wall.Nanoseconds()) / float64(hops),
			AllocsPerPacket: float64(allocs) / packets,
			BytesPerPacket:  float64(bytes) / packets,
		}
		run.Rows = append(run.Rows, row)
		t.Logf("GOMAXPROCS %d: %.0f ns/hop over %d hops, %.1f allocs and %.0f B per packet",
			procs, row.NsPerHop, hops, row.AllocsPerPacket, row.BytesPerPacket)
	}
	t.Logf("tree cache hit ratio %.4f", run.TreeHitRatio)

	doc := struct {
		Bench    string         `json:"bench"`
		Topology string         `json:"topology"`
		Now      fabricBenchRun `json:"now"`
		Parent   fabricBenchRun `json:"parent"`
	}{
		Bench: "fabric",
		Topology: fmt.Sprintf("revtr.Build, 1000 ASes, seed 31, survey skipped; %d echo requests from the %d VP sites "+
			"to one host per /24 and their replies, every second request with Record Route", packets, len(d.SiteAgents)),
		Now:    run,
		Parent: fabricBenchParent,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
