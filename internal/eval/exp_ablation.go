package eval

import (
	"context"
	"fmt"
	"io"

	"revtr/internal/alias"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/topology"
)

// The ablation experiment covers the DESIGN.md §4 design choices not
// already exercised by a paper artifact: the symmetry policy spectrum
// (never / intradomain-only / always — Q5's dial between coverage and
// trust) and alias-dataset coverage (which bounds both reverse-hop
// extraction and the accuracy evaluation itself).
func init() {
	register("ablation", "design-choice ablations (symmetry policy, alias coverage)", func(ctx context.Context, s Scale, w io.Writer) error {
		d := deployment(s, topology.Vintage2020)
		src := d.SourceFromAgent(d.SiteAgents[0])
		dests := probeDestinations(d)
		if len(dests) > s.Pairs {
			dests = dests[:s.Pairs]
		}

		// --- Symmetry policy spectrum (design choice 5) ---
		type row struct {
			name                string
			completed, wrong, n int
		}
		runPolicy := func(name string, pol core.SymmetryPolicy) row {
			opts := core.Revtr20Options()
			opts.Symmetry = pol
			opts.ExcludeAtlasFromDstAS = true
			eng := d.EngineWithAdjacencies(opts, nil)
			r := row{name: name}
			for _, dst := range dests {
				if dst.AS == src.Agent.AS {
					continue
				}
				r.n++
				res := eng.MeasureReverse(ctx, src, dst.Addr)
				if res.Status != core.StatusComplete {
					continue
				}
				r.completed++
				truth := d.Fabric.ForwardRouterPath(dst.Router, src.Agent.Addr, dst.Addr, 0)
				if truth == nil {
					continue
				}
				tAS := d.Fabric.ASPath(truth)
				rAS := ip2as.ASPath(d.TruthMapper, res.Addrs())
				if !asPathsEqual(rAS, tAS) && !asSubsequence(rAS, tAS) {
					r.wrong++
				}
			}
			return r
		}
		t := &Table{
			Title:  "Ablation — Q5 symmetry policy: coverage vs wrong paths",
			Header: []string{"policy", "coverage", "wrong-path rate (of completed)"},
		}
		for _, x := range []struct {
			name string
			pol  core.SymmetryPolicy
		}{
			{"never assume", core.SymNever},
			{"intradomain only (revtr2.0)", core.SymIntraOnly},
			{"always assume (revtr1.0)", core.SymAlways},
		} {
			r := runPolicy(x.name, x.pol)
			t.AddRow(r.name, Pct(float64(r.completed)/float64(max(1, r.n))),
				Pct(float64(r.wrong)/float64(max(1, r.completed))))
		}
		t.Fprint(w)
		fmt.Fprintf(w, "  expected: coverage rises down the table, and so does the wrong-path rate (Insight 1.10)\n\n")

		// --- Alias coverage (design choice 8) ---
		t2 := &Table{
			Title:  "Ablation — alias dataset coverage: reverse-hop extraction and accuracy",
			Header: []string{"MIDAR coverage", "coverage", "median router-frac vs direct traceroute"},
		}
		for _, cov := range []float64{0.05, 0.35, 0.90} {
			res := &alias.Combined{
				Midar: alias.NewMidar(d.Topo, cov, s.Seed+20),
				SNMP:  d.Alias.SNMP,
			}
			opts := core.Revtr20Options()
			opts.ExcludeAtlasFromDstAS = true
			eng := core.NewEngine(d.Fabric, d.Pool, d.IngressSvc, d.SiteAgents, res, d.Mapper, nil, opts)
			completed, n := 0, 0
			var frac Dist
			for _, dst := range dests {
				if dst.AS == src.Agent.AS {
					continue
				}
				n++
				r := eng.MeasureReverse(ctx, src, dst.Addr)
				if r.Status != core.StatusComplete {
					continue
				}
				completed++
				direct := d.Prober.Traceroute(dst, src.Agent.Addr)
				if !direct.ReachedDst {
					continue
				}
				if f, ok := hopMatchFraction(direct.HopAddrs(), r.Addrs(), res, false); ok {
					frac.Add(f)
				}
			}
			t2.AddRow(Pct(cov), Pct(float64(completed)/float64(max(1, n))), F(frac.Quantile(0.5)))
		}
		t2.Fprint(w)
		fmt.Fprintf(w, "  expected: richer alias data raises both extraction success and the measured router-level match\n")
		fmt.Fprintf(w, "  (§5.2.2: \"75%% of the direct traceroute hops not seen ... do not allow for alias resolution\")\n\n")
		return nil
	})
}
