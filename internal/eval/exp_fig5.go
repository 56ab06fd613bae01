package eval

import (
	"context"

	"fmt"
	"io"
	"sync"

	"revtr"
	"revtr/internal/alias"
	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// The §5.2 comparison workload: reverse traceroutes from RIPE-Atlas-style
// probes (destinations) to vantage point sites (sources), with direct
// traceroutes from the probes as approximate ground truth. Five engine
// configurations reproduce Table 4's incremental ablation
// (Eq. 1: revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR atlas),
// and the full configurations feed Fig 5a (accuracy), Fig 5b (coverage)
// and Fig 5c (latency).

type pairOutcome struct {
	dst    measure.Agent
	srcIdx int
	res    *core.Result
	direct measure.TracerouteResult
}

type runStats struct {
	name      string
	counters  measure.Counters
	durations Dist

	attempted, completed int
	pairs                []pairOutcome
}

type fig5Data struct {
	d       *revtr.Deployment
	sources []core.Source
	configs []*runStats
	byName  map[string]*runStats

	// forward RR baseline (src→dst single-packet paths).
	fwdRRFrac Dist
}

var (
	fig5Mu    sync.Mutex
	fig5Cache = map[string]*fig5Data{}
)

// ablationNames in Table 4 order.
var ablationNames = []string{
	"revtr1.0",
	"revtr1.0+ingress",
	"revtr1.0+ingress+cache",
	"revtr1.0+ingress+cache-TS",
	"revtr2.0",
	"revtr2.0+TS",
	"revtr2.0+TS+oracle-adj",
}

func fig5Key(s Scale) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d", s.ASes, s.Sites, s.Probes, s.AtlasSize, s.Pairs, s.Seed)
}

// oracleAdjacencies builds the Appendix D.1 perfect-information provider.
func oracleAdjacencies(d *revtr.Deployment) core.OracleAdjacencies {
	return core.OracleAdjacencies{NextReverse: func(cur, src ipv4.Addr) ipv4.Addr {
		r, ok := d.Topo.RouterOf(cur)
		if !ok {
			return 0
		}
		path := d.Fabric.ForwardRouterPath(r, src, cur, 0)
		if len(path) < 2 {
			return 0
		}
		return d.Topo.Routers[path[1]].Loopback
	}}
}

func fig5Configs(d *revtr.Deployment) map[string]struct {
	opts core.Options
	adj  core.AdjacencyProvider
} {
	arkAdj := d.BuildAdjacencies(300)
	o10 := core.Revtr10Options()
	o10.ExcludeAtlasFromDstAS = true
	o10i := o10
	o10i.VPSelection = ingress.SelIngress
	o10ic := o10i
	o10ic.UseCache = true
	o10icN := o10ic
	o10icN.UseTimestamp = false
	o20 := core.Revtr20Options()
	o20.ExcludeAtlasFromDstAS = true
	o20t := o20
	o20t.UseTimestamp = true
	cfg := map[string]struct {
		opts core.Options
		adj  core.AdjacencyProvider
	}{
		"revtr1.0":                  {o10, arkAdj},
		"revtr1.0+ingress":          {o10i, arkAdj},
		"revtr1.0+ingress+cache":    {o10ic, arkAdj},
		"revtr1.0+ingress+cache-TS": {o10icN, nil},
		"revtr2.0":                  {o20, nil},
		"revtr2.0+TS":               {o20t, arkAdj},
		"revtr2.0+TS+oracle-adj":    {o20t, oracleAdjacencies(d)},
	}
	return cfg
}

// runFig5 executes (or returns the cached) §5.2 workload at scale s.
func runFig5(ctx context.Context, s Scale) *fig5Data {
	fig5Mu.Lock()
	if f, ok := fig5Cache[fig5Key(s)]; ok {
		fig5Mu.Unlock()
		return f
	}
	fig5Mu.Unlock()

	d := deployment(s, topology.Vintage2020)
	f := &fig5Data{
		d:       d,
		sources: sourcesFor(d, s.Sources),
		byName:  make(map[string]*runStats),
	}

	// Enumerate pairs: destination probes × sources.
	type pair struct {
		dst    measure.Agent
		srcIdx int
	}
	var pairs []pair
	dests := probeDestinations(d)
	for i, dst := range dests {
		srcIdx := i % len(f.sources)
		if dst.AS == f.sources[srcIdx].Agent.AS {
			continue
		}
		pairs = append(pairs, pair{dst, srcIdx})
		if len(pairs) >= s.Pairs {
			break
		}
	}

	// Direct traceroutes (approximate ground truth, not visible to the
	// engines) and the forward-RR baseline.
	directs := make([]measure.TracerouteResult, len(pairs))
	var res alias.Resolver = d.Alias
	for i, p := range pairs {
		directs[i] = d.Prober.Traceroute(p.dst, f.sources[p.srcIdx].Agent.Addr)
		// Forward RR + forward traceroute from the source to the probe.
		src := f.sources[p.srcIdx].Agent
		fwd := d.Prober.Traceroute(src, p.dst.Addr)
		rr := d.Prober.RRPing(src, p.dst.Addr)
		if rr.Responded && fwd.ReachedDst {
			if frac, ok := hopMatchFraction(fwd.HopAddrs(), rr.Recorded, res, false); ok {
				f.fwdRRFrac.Add(frac)
			}
		}
	}

	for _, name := range ablationNames {
		c := fig5Configs(d)[name]
		eng := d.EngineWithAdjacencies(c.opts, c.adj)
		st := &runStats{name: name}
		for i, p := range pairs {
			r := eng.MeasureReverse(ctx, f.sources[p.srcIdx], p.dst.Addr)
			st.attempted++
			if r.Status == core.StatusComplete {
				st.completed++
			}
			st.counters = st.counters.Add(r.Probes)
			st.durations.Add(float64(r.DurationUS) / 1e6)
			st.pairs = append(st.pairs, pairOutcome{dst: p.dst, srcIdx: p.srcIdx, res: r, direct: directs[i]})
		}
		f.configs = append(f.configs, st)
		f.byName[name] = st
	}

	fig5Mu.Lock()
	fig5Cache[fig5Key(s)] = f
	fig5Mu.Unlock()
	return f
}

// hopMatchFraction computes the fraction of reference hops also present
// in measured, matching by identity, alias resolution, or the /30
// heuristic. With optimistic true, unresolvable reference hops count as
// matched (Fig 5a's router-optimistic band). Returns ok=false when the
// reference is empty.
func hopMatchFraction(reference, measured []ipv4.Addr, res alias.Resolver, optimistic bool) (float64, bool) {
	if len(reference) == 0 {
		return 0, false
	}
	var p2p alias.Slash30
	match := 0
	for _, h := range reference {
		seen := false
		for _, x := range measured {
			if x == h || (res != nil && res.SameRouter(x, h)) || p2p.SameLink(x, h) {
				seen = true
				break
			}
		}
		if !seen && optimistic && res != nil && !res.Known(h) {
			seen = true
		}
		if seen {
			match++
		}
	}
	return float64(match) / float64(len(reference)), true
}

// asPathsEqual / asSubsequence compare AS paths.
func asPathsEqual(a, b []topology.ASN) bool {
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

// asSubsequence reports whether sub appears within full in order.
func asSubsequence(sub, full []topology.ASN) bool {
	j := 0
	for _, x := range full {
		if j < len(sub) && sub[j] == x {
			j++
		}
	}
	return j == len(sub)
}

// asFracSeen returns the fraction of reference AS hops present in the
// measured AS path.
func asFracSeen(reference, measured []topology.ASN) (float64, bool) {
	if len(reference) == 0 {
		return 0, false
	}
	in := map[topology.ASN]bool{}
	for _, a := range measured {
		in[a] = true
	}
	n := 0
	for _, a := range reference {
		if in[a] {
			n++
		}
	}
	return float64(n) / float64(len(reference)), true
}

// accuracyOf scores a configuration's completed measurements against the
// direct traceroutes.
type accuracy struct {
	comparable int
	exactAS    int
	subseqAS   int // incomplete but not wrong (missing hops only)
	wrongAS    int
	fracAS     Dist
	fracRouter Dist
	fracOpt    Dist
	suspects   int
}

func scoreAccuracy(d *revtr.Deployment, st *runStats) accuracy {
	var acc accuracy
	mapper := d.Mapper
	for _, p := range st.pairs {
		if p.res.Status != core.StatusComplete || !p.direct.ReachedDst {
			continue
		}
		acc.comparable++
		directHops := p.direct.HopAddrs()
		revHops := p.res.Addrs()
		dAS := ip2as.ASPath(mapper, directHops)
		rAS := ip2as.ASPath(mapper, revHops)
		// The direct traceroute runs dst→src; the reverse traceroute is
		// also dst→src. Compare directly.
		switch {
		case asPathsEqual(rAS, dAS):
			acc.exactAS++
		case asSubsequence(rAS, dAS):
			acc.subseqAS++
		default:
			acc.wrongAS++
		}
		if f, ok := asFracSeen(dAS, rAS); ok {
			acc.fracAS.Add(f)
		}
		if f, ok := hopMatchFraction(directHops, revHops, d.Alias, false); ok {
			acc.fracRouter.Add(f)
		}
		if f, ok := hopMatchFraction(directHops, revHops, d.Alias, true); ok {
			acc.fracOpt.Add(f)
		}
		if p.res.HasSuspect() {
			acc.suspects++
		}
	}
	return acc
}

func init() {
	register("table4", "Table 4: probe counts per ablation stage", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		t := &Table{
			Title:  "Table 4 — packets sent per configuration (lower is better)",
			Header: []string{"configuration", "RR", "SpoofRR", "TS", "SpoofTS", "Total", "+Traceroute"},
		}
		base := f.byName["revtr1.0"].counters.Total()
		for _, name := range ablationNames[:5] {
			c := f.byName[name].counters
			t.AddRow(name,
				fmt.Sprint(c.RR), fmt.Sprint(c.SpoofRR),
				fmt.Sprint(c.TS), fmt.Sprint(c.SpoofTS),
				fmt.Sprint(c.RR+c.SpoofRR+c.TS+c.SpoofTS),
				fmt.Sprint(c.Traceroute))
		}
		t.Fprint(w)
		r20 := f.byName["revtr2.0"].counters.Total()
		fmt.Fprintf(w, "  revtr2.0 sends %s as many probes as revtr1.0 (paper: 26%%)\n\n",
			Pct(float64(r20)/float64(base)))
		return nil
	})

	register("fig5a", "Fig 5a: accuracy vs direct traceroutes", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		a20 := scoreAccuracy(f.d, f.byName["revtr2.0"])
		a10 := scoreAccuracy(f.d, f.byName["revtr1.0"])
		t := &Table{
			Title: "Fig 5a — fraction of direct-traceroute hops also on the reverse traceroute",
			Header: []string{"line", "n", "exact-AS", "AS-match-or-missing", "wrong-AS",
				"median-frac-AS", "median-frac-router", "median-frac-router-opt"},
		}
		row := func(name string, a accuracy) {
			exact := 0.0
			incompl := 0.0
			wrong := 0.0
			if a.comparable > 0 {
				exact = float64(a.exactAS) / float64(a.comparable)
				incompl = float64(a.exactAS+a.subseqAS) / float64(a.comparable)
				wrong = float64(a.wrongAS) / float64(a.comparable)
			}
			t.AddRow(name, fmt.Sprint(a.comparable), Pct(exact), Pct(incompl), Pct(wrong),
				F(a.fracAS.Quantile(0.5)), F(a.fracRouter.Quantile(0.5)), F(a.fracOpt.Quantile(0.5)))
		}
		row("revtr2.0", a20)
		row("revtr1.0", a10)
		t.AddRow("forward-RR", fmt.Sprint(f.fwdRRFrac.N()), "-", "-", "-", "-",
			F(f.fwdRRFrac.Quantile(0.5)), "-")
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: revtr2.0 92.3%% exact AS + 6.1%% missing-hop-only; revtr1.0 81.8%% exact\n\n")
		return nil
	})

	register("fig5b", "Fig 5b: coverage per configuration", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		t := &Table{
			Title:  "Fig 5b — coverage (completed / attempted)",
			Header: []string{"technique", "coverage", "completed", "attempted"},
		}
		for _, name := range []string{"revtr1.0", "revtr2.0", "revtr2.0+TS", "revtr2.0+TS+oracle-adj"} {
			st := f.byName[name]
			t.AddRow(name, Pct(float64(st.completed)/float64(st.attempted)),
				fmt.Sprint(st.completed), fmt.Sprint(st.attempted))
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: revtr1.0 100%%, revtr2.0 78.1%%, +TS 78.2%%, +TS+oracle 79.2%%\n\n")
		return nil
	})

	register("fig5c", "Fig 5c: latency CDF per configuration", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		t := &Table{
			Title:  "Fig 5c — reverse traceroute duration (seconds)",
			Header: []string{"configuration", "p10", "p50", "p90", "mean"},
		}
		for _, name := range ablationNames[:5] {
			st := f.byName[name]
			t.AddRow(name, F(st.durations.Quantile(0.1)), F(st.durations.Quantile(0.5)),
				F(st.durations.Quantile(0.9)), F(st.durations.Mean()))
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: median drops from 78s (revtr1.0) to 6s (revtr2.0)\n\n")
		return nil
	})

	register("appxD1", "Appx D.1: marginal utility of Timestamp", func(ctx context.Context, s Scale, w io.Writer) error {
		f := runFig5(ctx, s)
		no := f.byName["revtr2.0"]
		ts := f.byName["revtr2.0+TS"]
		oracle := f.byName["revtr2.0+TS+oracle-adj"]
		t := &Table{
			Title:  "Appx D.1 — Timestamp rescues vs probe cost",
			Header: []string{"configuration", "completed", "TS packets", "SpoofTS packets"},
		}
		for _, st := range []*runStats{no, ts, oracle} {
			t.AddRow(st.name, fmt.Sprint(st.completed), fmt.Sprint(st.counters.TS), fmt.Sprint(st.counters.SpoofTS))
		}
		t.Fprint(w)
		gain := float64(oracle.completed-no.completed) / float64(max(1, no.attempted))
		fmt.Fprintf(w, "  oracle-TS coverage gain: %s (paper: ~1%%, not worth the probes)\n\n", Pct(gain))
		return nil
	})
}
