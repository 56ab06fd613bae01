// Command topogen generates a simulated Internet topology and prints its
// statistics — useful for understanding what the experiments run over.
//
//	topogen -ases 1000 -seed 7
//	topogen -ases 1000 -vintage 2016
//	topogen -ases 500 -dump-as 42
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"revtr/internal/netsim/topology"
)

func main() {
	var (
		ases    = flag.Int("ases", 1000, "number of ASes")
		seed    = flag.Int64("seed", 1, "generation seed")
		vintage = flag.String("vintage", "2020", "2016 | 2020 (flattening era)")
		dumpAS  = flag.Int("dump-as", -1, "dump one AS's detail and exit")
	)
	flag.Parse()

	cfg := topology.Config{Seed: *seed, NumASes: *ases}
	switch *vintage {
	case "2020":
	case "2016":
		cfg.Vintage = topology.Vintage2016
	default:
		fmt.Fprintf(os.Stderr, "unknown vintage %q\n", *vintage)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	topo := topology.Generate(cfg)

	if *dumpAS >= 0 {
		if *dumpAS >= len(topo.ASes) {
			fmt.Fprintf(os.Stderr, "AS%d out of range\n", *dumpAS)
			os.Exit(1)
		}
		dump(topo, topology.ASN(*dumpAS))
		return
	}

	fmt.Println(topo.Stats())
	// Degree and cone distributions.
	var degrees, cones []int
	for _, as := range topo.ASes {
		degrees = append(degrees, len(as.Neighbors))
		cones = append(cones, as.ConeSize)
	}
	sort.Ints(degrees)
	sort.Ints(cones)
	q := func(xs []int, p float64) int { return xs[int(p*float64(len(xs)-1))] }
	fmt.Printf("AS degree:    p50=%d p90=%d p99=%d max=%d\n",
		q(degrees, 0.5), q(degrees, 0.9), q(degrees, 0.99), degrees[len(degrees)-1])
	fmt.Printf("customer cone: p50=%d p90=%d p99=%d max=%d\n",
		q(cones, 0.5), q(cones, 0.9), q(cones, 0.99), cones[len(cones)-1])

	// Responsiveness summary.
	ping, rr := 0, 0
	for _, h := range topo.Hosts {
		if h.PingResponsive {
			ping++
		}
		if h.RRResponsive {
			rr++
		}
	}
	fmt.Printf("hosts: %d (ping-responsive %.0f%%, RR-responsive %.0f%%)\n",
		len(topo.Hosts), 100*float64(ping)/float64(len(topo.Hosts)),
		100*float64(rr)/float64(len(topo.Hosts)))
}

func dump(topo *topology.Topology, asn topology.ASN) {
	as := topo.ASes[asn]
	fmt.Printf("AS%d  tier=%s  block=%s  cone=%d  pos=(%.2f,%.2f)\n",
		as.ASN, as.Tier, as.Block, as.ConeSize, as.Pos[0], as.Pos[1])
	fmt.Printf("  spoofing=%v filtersOptions=%v\n", as.AllowsSpoofing, as.FiltersOptions)
	fmt.Printf("  neighbors (%d):\n", len(as.Neighbors))
	for _, nb := range as.Neighbors {
		fmt.Printf("    AS%-6d %-9s links=%d\n", nb.ASN, nb.Rel, len(nb.Link))
	}
	fmt.Printf("  routers (%d):\n", len(as.Routers))
	for _, rid := range as.Routers {
		r := topo.Routers[rid]
		fmt.Printf("    r%-6d role=%d loopback=%-15s stamp=%d ifaces=%d\n",
			r.ID, r.Role, r.Loopback, r.Stamp, len(r.Ifaces))
	}
	fmt.Printf("  prefixes: %v\n", as.Prefixes)
}
