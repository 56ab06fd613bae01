// Command revtr-campaign runs a bulk topology-mapping campaign (the §5.1
// use case: one reverse traceroute from a responsive host in every routed
// prefix back to each source), in parallel, and prints the §5.1-style
// summary: completion, symmetry-assumption share, probe budget, and the
// AS coverage of the measured reverse paths.
//
//	revtr-campaign -ases 1000 -sources 8 -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"revtr"
	"revtr/internal/campaign"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/obs"
)

func main() {
	var (
		ases    = flag.Int("ases", 1000, "ASes in the simulated Internet")
		seed    = flag.Int64("seed", 1, "simulation seed")
		sources = flag.Int("sources", 8, "number of sources (vantage point sites)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		maxDest = flag.Int("dests", 0, "cap destinations (0 = one per routed prefix)")
		every   = flag.Int("progress-every", 500, "log live progress every N completed tasks (0 = off)")
		dumpObs = flag.Bool("metrics", false, "print the observability registry (engine stages, cache, latency histograms) after the run")

		faultSpec  = flag.String("faults", "", "fault plan spec, e.g. loss=0.01,icmp-frac=0.3,icmp-pass=0.5 (see internal/netsim/faults)")
		faultVPOut = flag.Int("fault-vp-outages", 0, "blackout this many spoof-capable non-source vantage point sites from t=0")
		retries    = flag.Int("probe-retries", 0, "re-issue unanswered probes up to this many times (virtual-time backoff from 50ms, doubling)")
		segmentTTL = flag.Duration("segment-ttl", 0, "memoize reverse-path segments across measurements for this long in virtual time (0 = off)")
	)
	flag.Parse()

	cfg := revtr.DefaultConfig(*ases)
	if err := cfg.Topology.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	log.Printf("building simulated Internet (%d ASes)...", *ases)
	cfg.Seed = *seed
	cfg.Topology.Seed = *seed
	d := revtr.Build(cfg)
	log.Printf("topology: %s", d.Topo.Stats())

	// Black out only sites that are not campaign sources, so the run
	// exercises VP failover rather than just killing sources.
	plan, err := d.InjectFaults(*faultSpec, *faultVPOut, *sources, *retries)
	if err != nil {
		log.Fatalf("fault plan: %v", err)
	}
	if plan.Enabled() {
		log.Printf("fault plan active: %s", plan)
	}

	var srcs []core.Source
	for i := 0; i < *sources && i < len(d.SiteAgents); i++ {
		srcs = append(srcs, d.SourceFromAgent(d.SiteAgents[i]))
	}
	var dsts []ipv4.Addr
	for _, h := range d.OnePerPrefix() {
		dsts = append(dsts, h.Addr)
		if *maxDest > 0 && len(dsts) >= *maxDest {
			break
		}
	}
	tasks := campaign.AllPairs(len(srcs), dsts)
	log.Printf("campaign: %d sources x %d destinations = %d reverse traceroutes, %d workers",
		len(srcs), len(dsts), len(tasks), *workers)

	var (
		mu        sync.Mutex
		symShare  int
		asCovered = map[topology.ASN]bool{}
	)
	obsReg := obs.New()
	plan.SetObs(obsReg)
	campaignOpts := core.Revtr20Options()
	if *segmentTTL > 0 {
		st := segments.New(segments.Options{TTLUS: segmentTTL.Microseconds()})
		st.SetObs(obsReg)
		campaignOpts.SegmentStore = st
		log.Printf("segment memoization: ttl %s, max %d segments", *segmentTTL, segments.DefaultMaxEntries)
	}
	start := time.Now() //revtr:wallclock operator-facing throughput log, not simulation time
	r := &campaign.Runner{
		D: d, Sources: srcs, Opts: campaignOpts, Workers: *workers,
		Obs:           obsReg,
		ProgressEvery: *every,
		OnResult: func(o campaign.Outcome) {
			if o.Result.Status != core.StatusComplete {
				return
			}
			mu.Lock()
			if o.Result.SymAssumed > 0 {
				symShare++
			}
			for _, asn := range ip2as.ASPath(d.Mapper, o.Result.Addrs()) {
				asCovered[asn] = true
			}
			mu.Unlock()
		},
	}
	if *every > 0 {
		// Live §5.2.4-style throughput accounting while the campaign runs.
		r.OnProgress = func(p campaign.Summary, total int) {
			elapsed := time.Since(start).Seconds() //revtr:wallclock operator-facing throughput log, not simulation time
			log.Printf("progress: %d/%d (%.1f%%) complete=%d aborted=%d failed=%d | %.0f revtr/s | %d probes",
				p.Attempted, total, 100*float64(p.Attempted)/float64(max(1, total)),
				p.Complete, p.Aborted, p.Failed,
				float64(p.Attempted)/elapsed, p.Probes.Total())
		}
	}
	sum := r.Run(context.Background(), tasks)
	wall := time.Since(start) //revtr:wallclock operator-facing runtime report, not simulation time

	fmt.Printf("\n== campaign summary (§5.1 style) ==\n")
	fmt.Printf("attempted:             %d\n", sum.Attempted)
	fmt.Printf("complete:              %d (%.1f%%)\n", sum.Complete, 100*sum.Coverage())
	fmt.Printf("aborted (interdomain): %d\n", sum.Aborted)
	fmt.Printf("failed:                %d\n", sum.Failed)
	fmt.Printf("with intradomain symmetry assumption: %d (%.1f%% of complete; paper: 24%%)\n",
		symShare, 100*float64(symShare)/float64(max(1, sum.Complete)))
	fmt.Printf("probe packets:         %d (%.1f per attempt)\n",
		sum.Probes.Total(), float64(sum.Probes.Total())/float64(max(1, sum.Attempted)))
	fmt.Printf("ASes on measured reverse paths: %d of %d (%.1f%%; paper: 39.5K of 72K)\n",
		len(asCovered), len(d.Topo.ASes), 100*float64(len(asCovered))/float64(len(d.Topo.ASes)))
	if sum.Invalid > 0 {
		fmt.Printf("invalid tasks:         %d (rejected up front, counted as failed)\n", sum.Invalid)
	}
	if plan.Enabled() {
		fmt.Printf("faults injected:       %d (link-loss=%d icmp-limit=%d blackout=%d flap=%d)\n",
			plan.Total(), plan.Count(faults.KindLinkLoss), plan.Count(faults.KindRateLimit),
			plan.Count(faults.KindBlackout), plan.Count(faults.KindFlap))
	}
	fmt.Printf("wall time:             %.1fs (%.0f revtr/s on this machine)\n",
		wall.Seconds(), float64(sum.Attempted)/wall.Seconds())
	fmt.Printf("virtual measurement time: %.0fs total\n", float64(sum.VirtualUS)/1e6)

	if *dumpObs {
		fmt.Printf("\n== observability registry ==\n")
		_ = obsReg.WriteText(os.Stdout)
	}
}
