package eval

import (
	"context"
	"fmt"
	"io"

	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/obs"
)

// The segments experiment ablates Doubletree-style segment memoization
// (internal/core/segments): the same destination list is measured twice
// with a repeated pass — store off, then store on — and the table
// reports what memoization buys (probes per attempt, splice share) and
// what it must not cost (reverse paths that differ from the
// memoization-free measurement). On a static fabric the divergence
// column must be zero: splicing reproduces the exact hop sequence a
// fresh measurement would have stitched (the differential harness in
// internal/core pins this bit-for-bit).
func init() {
	register("segments", "segment memoization ablation: probe savings vs path fidelity", func(ctx context.Context, s Scale, w io.Writer) error {
		d := deployment(s, topology.Vintage2020)
		src := d.SourceFromAgent(d.SiteAgents[0])
		dests := probeDestinations(d)
		if len(dests) > s.Pairs/2 {
			dests = dests[:s.Pairs/2]
		}

		// Each pass measures every destination twice: repetition is where
		// shared reverse suffixes recur, which is the regime stop sets
		// target (one-shot workloads cannot splice anything).
		type pass struct {
			probes   uint64
			attempts int
			splices  uint64
			paths    map[ipv4.Addr]string
		}
		run := func(st *segments.Store) pass {
			opts := core.Revtr20Options()
			opts.UseCache = false // isolate memoization from the day cache
			opts.SegmentStore = st
			eng := d.EngineWithAdjacencies(opts, nil)
			reg := obs.New()
			eng.SetMetrics(core.NewMetrics(reg))
			p := pass{paths: make(map[ipv4.Addr]string, len(dests))}
			for round := 0; round < 2; round++ {
				for _, dst := range dests {
					if dst.AS == src.Agent.AS {
						continue
					}
					p.attempts++
					res := eng.MeasureReverse(ctx, src, dst.Addr)
					p.probes += res.Probes.Total()
					if round == 1 && res.Status == core.StatusComplete {
						p.paths[dst.Addr] = fmt.Sprint(res.Addrs())
					}
				}
			}
			p.splices = reg.Counter("engine_segment_splices_total").Value()
			return p
		}

		off := run(nil)
		on := run(segments.New(segments.Options{TTLUS: 1 << 60}))

		diverged, compared := 0, 0
		for dst, path := range off.paths {
			onPath, ok := on.paths[dst]
			if !ok {
				continue
			}
			compared++
			if path != onPath {
				diverged++
			}
		}

		t := &Table{
			Title:  "Segment memoization ablation — probe budget vs path fidelity",
			Header: []string{"store", "probes/attempt", "splice share", "paths diverged"},
		}
		t.AddRow("off", F(float64(off.probes)/float64(max(1, off.attempts))), Pct(0), "—")
		t.AddRow("on", F(float64(on.probes)/float64(max(1, on.attempts))),
			Pct(float64(on.splices)/float64(max(1, on.attempts))),
			fmt.Sprintf("%d of %d", diverged, compared))
		t.Fprint(w)
		saved := 1 - float64(on.probes)/float64(max(1, int(off.probes)))
		fmt.Fprintf(w, "  probe budget saved: %s; expected: substantial savings on the repeated pass with zero diverged paths\n", Pct(saved))
		fmt.Fprintf(w, "  (Doubletree stop sets, Donnet et al.: shared reverse suffixes are measured once and spliced thereafter)\n\n")
		return nil
	})
}
