package eval

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"

	"revtr"
	"revtr/internal/ingress"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// §5.3: evaluating Record Route vantage point selection. For every BGP
// prefix with at least three responsive destinations (two consumed by the
// survey, one held out for evaluation), each technique's VP plan is probed
// in batches, measuring reverse hops uncovered by the first batch
// (Fig 6a/6b), spoofers tried until a reveal (Fig 6c), and whether the
// technique finds a VP within 8 RR hops at all (Table 5).

type vpselData struct {
	d *revtr.Deployment
	// held-out evaluation destination per prefix.
	evalDst map[ipv4.Prefix]ipv4.Addr
	// firstBatch[technique][batchSize] -> reveal counts.
	firstBatch map[string]map[int]*Dist
	// tried[technique] -> number of spoofers tried until reveal/give-up.
	tried map[string]*Dist
	// found[technique] -> prefixes where a VP within range was found.
	found     map[string]int
	nPrefixes int
}

var (
	vpselMu    sync.Mutex
	vpselCache = map[string]*vpselData{}
)

// revealCount probes dst from vantage point vp spoofing src and counts
// reverse hops uncovered.
func revealCount(d *revtr.Deployment, vp, src measure.Agent, dst ipv4.Addr) int {
	if vp.Addr == src.Addr {
		return 0
	}
	rr := d.Prober.SpoofedRRPing(vp, src.Addr, dst)
	return len(extractAfterTarget(rr.Recorded, dst))
}

func runVPSel(s Scale) *vpselData {
	key := fig5Key(s)
	vpselMu.Lock()
	if v, ok := vpselCache[key]; ok {
		vpselMu.Unlock()
		return v
	}
	vpselMu.Unlock()

	d := deployment(s, topology.Vintage2020)
	v := &vpselData{
		d:          d,
		evalDst:    map[ipv4.Prefix]ipv4.Addr{},
		firstBatch: map[string]map[int]*Dist{},
		tried:      map[string]*Dist{},
		found:      map[string]int{},
	}
	src := d.SiteAgents[0]

	// Held-out destinations: third responsive host per announced prefix.
	count := 0
	for _, as := range d.Topo.ASes {
		for _, pfx := range as.Prefixes {
			var resp []ipv4.Addr
			for _, hid := range as.Hosts {
				h := &d.Topo.Hosts[hid]
				if pfx.Contains(h.Addr) && h.PingResponsive && h.RRResponsive {
					resp = append(resp, h.Addr)
				}
			}
			if len(resp) >= 3 {
				v.evalDst[pfx] = resp[2]
				count++
			}
		}
		if count >= s.Pairs {
			break
		}
	}
	v.nPrefixes = len(v.evalDst)

	// Indexed by Selection and probed in this order, prefix by prefix in
	// address order: the shared prober's sequence numbers steer per-packet
	// balancers, so the order is part of the result.
	techniques := [...]string{
		ingress.SelIngress:  "ingress (revtr2.0)",
		ingress.SelSetCover: "revtr1.0 set-cover",
		ingress.SelGlobal:   "global",
	}
	for _, name := range techniques {
		v.firstBatch[name] = map[int]*Dist{}
		v.tried[name] = &Dist{}
	}
	v.firstBatch["optimal"] = map[int]*Dist{}
	v.firstBatch["optimal"][3] = &Dist{}

	for _, pfx := range sortedPrefixes(v.evalDst) {
		dst := v.evalDst[pfx]
		// Optimal: the best any site can do.
		bestAny := 0
		for _, vp := range d.SiteAgents {
			if n := revealCount(d, vp, src, dst); n > bestAny {
				bestAny = n
			}
		}
		v.firstBatch["optimal"][3].Add(float64(bestAny))
		if bestAny > 0 {
			v.found["optimal"]++
		}

		for sel, name := range techniques {
			plan := d.IngressSvc.PlanFor(pfx, ingress.Selection(sel))
			// First-batch reveals for batch sizes 1, 3, 5.
			for _, bs := range []int{1, 3, 5} {
				if name != "ingress (revtr2.0)" && bs != 3 {
					continue // Fig 6a varies batch size on the ingress plan
				}
				if v.firstBatch[name][bs] == nil {
					v.firstBatch[name][bs] = &Dist{}
				}
				best := 0
				for i := 0; i < bs && i < len(plan.Order); i++ {
					if n := revealCount(d, d.SiteAgents[plan.Order[i]], src, dst); n > best {
						best = n
					}
				}
				v.firstBatch[name][bs].Add(float64(best))
			}
			// Spoofers tried until first reveal (Fig 6c) and in-range
			// determination (Table 5).
			tried := 0
			foundOne := false
			for _, si := range plan.Order {
				tried++
				if revealCount(d, d.SiteAgents[si], src, dst) > 0 {
					foundOne = true
					break
				}
			}
			if tried == 0 {
				tried = 1 // empty plan: counts as one decision
			}
			v.tried[name].Add(float64(tried))
			if foundOne {
				v.found[name]++
			}
		}
	}

	vpselMu.Lock()
	vpselCache[key] = v
	vpselMu.Unlock()
	return v
}

// runHeuristicAblation re-surveys with reduced heuristics to produce the
// Table 5 ingress rows.
func runHeuristicAblation(s Scale, v *vpselData) map[string]int {
	d := v.d
	src := d.SiteAgents[0]
	out := map[string]int{}
	// Survey consumes the service's seeded stream per prefix, so the prefix
	// order must be deterministic, not map order; so must the probing order.
	prefixes := sortedPrefixes(v.evalDst)
	names := [...]string{"ingress (no heuristics)", "ingress + double-stamp"}
	for i, heur := range []ingress.Heuristics{{}, {DoubleStamp: true}} {
		svc := ingress.NewService(d.Prober, d.SiteAgents, heur, s.Seed)
		svc.Survey(prefixes, d.SurveyDestinations)
		found := 0
		for _, pfx := range prefixes {
			plan := svc.PlanFor(pfx, ingress.SelIngress)
			for _, si := range plan.Order {
				if revealCount(d, d.SiteAgents[si], src, v.evalDst[pfx]) > 0 {
					found++
					break
				}
			}
		}
		out[names[i]] = found
	}
	return out
}

// sortedPrefixes returns m's prefixes in address order.
func sortedPrefixes(m map[ipv4.Prefix]ipv4.Addr) []ipv4.Prefix {
	return slices.SortedFunc(maps.Keys(m), func(a, b ipv4.Prefix) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Bits, b.Bits))
	})
}

func init() {
	register("fig6", "Fig 6a-c: RR vantage point selection", func(ctx context.Context, s Scale, w io.Writer) error {
		v := runVPSel(s)
		t := &Table{
			Title:  "Fig 6a — reverse hops uncovered by the first batch (ingress plan)",
			Header: []string{"batch size", "mean", "P(>=1)", "P(>=4)"},
		}
		for _, bs := range []int{1, 3, 5} {
			d := v.firstBatch["ingress (revtr2.0)"][bs]
			t.AddRow(fmt.Sprint(bs), F(d.Mean()), Pct(d.FracAtLeast(1)), Pct(d.FracAtLeast(4)))
		}
		od := v.firstBatch["optimal"][3]
		t.AddRow("optimal", F(od.Mean()), Pct(od.FracAtLeast(1)), Pct(od.FracAtLeast(4)))
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: batches of 3 ≈ batches of 5; both near optimal\n\n")

		t2 := &Table{
			Title:  "Fig 6b — reverse hops uncovered by first batch of 3, per technique",
			Header: []string{"technique", "mean", "P(>=1)", "P(>=4)"},
		}
		for _, name := range []string{"ingress (revtr2.0)", "revtr1.0 set-cover", "global", "optimal"} {
			d := v.firstBatch[name][3]
			t2.AddRow(name, F(d.Mean()), Pct(d.FracAtLeast(1)), Pct(d.FracAtLeast(4)))
		}
		t2.Fprint(w)
		fmt.Fprintf(w, "  paper: ingress near optimal; revtr1.0 reveals 4+ hops for 20%% vs 50%% for revtr2.0\n\n")

		t3 := &Table{
			Title:  "Fig 6c — spoofing VPs tried before reveal/give-up",
			Header: []string{"technique", "median", "P(>=10)", "P(>=min(100,#sites))"},
		}
		cap100 := float64(len(v.d.SiteAgents))
		if cap100 > 100 {
			cap100 = 100
		}
		for _, name := range []string{"ingress (revtr2.0)", "revtr1.0 set-cover", "global"} {
			d := v.tried[name]
			t3.AddRow(name, F(d.Quantile(0.5)), Pct(d.FracAtLeast(10)), Pct(d.FracAtLeast(cap100)))
		}
		t3.Fprint(w)
		fmt.Fprintf(w, "  paper: revtr2.0 tries 10+ VPs for <5%% of prefixes vs 28%% for revtr1.0/global\n\n")
		return nil
	})

	register("table5", "Table 5: VP found within 8 RR hops per technique", func(ctx context.Context, s Scale, w io.Writer) error {
		v := runVPSel(s)
		abl := runHeuristicAblation(s, v)
		t := &Table{
			Title:  "Table 5 — fraction of prefixes where a VP within 8 RR hops is found",
			Header: []string{"technique", "fraction"},
		}
		n := float64(max(1, v.nPrefixes))
		t.AddRow("ingress (no heuristics)", F(float64(abl["ingress (no heuristics)"])/n))
		t.AddRow("ingress + double-stamp", F(float64(abl["ingress + double-stamp"])/n))
		t.AddRow("ingress + double-stamp + loop (revtr2.0)", F(float64(v.found["ingress (revtr2.0)"])/n))
		t.AddRow("revtr1.0", F(float64(v.found["revtr1.0 set-cover"])/n))
		t.AddRow("optimal", F(float64(v.found["optimal"])/n))
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: 0.65 / 0.70 / 0.71 / 0.72 / 0.72\n\n")
		return nil
	})
}
