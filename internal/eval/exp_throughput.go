package eval

import (
	"context"
	"fmt"
	"io"
)

// §5.2.4 throughput: the paper reports 173 reverse traceroutes per second
// for revtr 2.0 (≈15M/day) versus 4/s (354K/day) for its revtr 1.0
// reimplementation. Two resources bound throughput, and both are
// measurable from the fig5 workload:
//
//   - latency-bound: with P parallel measurements in flight, throughput is
//     P / mean(duration) — a spoofed batch short of a reply holds its
//     slot for the 10 s timeout;
//   - probe-budget-bound: vantage points cap probing at 100 pps (§8), so
//     throughput can never exceed sites×100 / probes-per-revtr.
//
// The realizable rate is the smaller of the two.
func init() {
	register("throughput", "§5.2.4: system throughput, revtr 1.0 vs 2.0", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		nSites := float64(len(f.d.SiteAgents))
		// Concurrent measurements the service sustains. The resumable
		// machine keeps each in-flight measurement as a ~1 KB suspended
		// record rather than a parked goroutine, and BENCH_engine.json
		// records the engine holding 10k in flight; that is the slot
		// count the latency bound divides over.
		const parallel = 10_000.0
		const ppsPerVP = 100.0 // §8's self-imposed probing cap

		t := &Table{
			Title: "§5.2.4 — sustainable reverse traceroutes per second",
			Header: []string{"configuration", "probes/revtr", "mean dur (s)",
				"latency-bound (/s)", "probe-bound (/s)", "sustainable (/s)"},
		}
		var r10, r20 float64
		for _, name := range []string{"revtr1.0", "revtr2.0"} {
			st := f.byName[name]
			probesPer := float64(st.counters.Total()) / float64(max(1, st.attempted))
			meanDur := st.durations.Mean()
			latBound := parallel / meanDur
			probeBound := nSites * ppsPerVP / probesPer
			sustainable := latBound
			if probeBound < sustainable {
				sustainable = probeBound
			}
			t.AddRow(name, F(probesPer), F(meanDur), F(latBound), F(probeBound), F(sustainable))
			if name == "revtr1.0" {
				r10 = sustainable
			} else {
				r20 = sustainable
			}
		}
		t.Fprint(w)
		if r10 > 0 {
			fmt.Fprintf(w, "  revtr2.0 / revtr1.0 throughput ratio: %.1fx (paper: 43x — 173/s vs 4/s)\n", r20/r10)
		}
		fmt.Fprintf(w, "  per day at the sustainable rate: revtr2.0 ≈ %.1fM (paper: ≈15M)\n\n", r20*86400/1e6)
		return nil
	})
}
