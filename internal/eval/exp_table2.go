package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"revtr"
	"revtr/internal/alias"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

// Table 2 (§4.4): how often is the penultimate hop of a forward traceroute
// also on the reverse path? The answer justifies revtr 2.0's policy of
// assuming symmetry only on intradomain links.
//
// Methodology (as in the paper): for each SNMPv3-responsive interface,
// target the other address of its /30; traceroute from a random site to
// the target to get the penultimate hop; reveal reverse hops with a
// (spoofed) RR ping; classify the penultimate hop as on the reverse path
// (it or an alias appears among the reverse hops), not on it (it is
// SNMPv3-responsive — reliable alias info — but absent), or unknown.

type table2Row struct {
	yes, no, unknown int
}

func (r table2Row) cells(name string) []string {
	total := r.yes + r.no + r.unknown
	if total == 0 {
		return []string{name, "-", "-", "-", "-"}
	}
	f := func(n int) string { return Pct(float64(n) / float64(total)) }
	yesRate := "-"
	if r.yes+r.no > 0 {
		yesRate = Pct(float64(r.yes) / float64(r.yes+r.no))
	}
	return []string{name, f(r.yes), f(r.no), f(r.unknown), yesRate}
}

type table2Result struct {
	intra, inter, all table2Row
}

func runTable2(s Scale) table2Result {
	d := deployment(s, topology.Vintage2020)
	rng := rand.New(rand.NewSource(s.Seed + 2))
	var res table2Result
	var p2p alias.Slash30

	// Collect /30 partner targets of SNMPv3-responsive interfaces.
	type target struct{ addr ipv4.Addr }
	var targets []target
	for ii := range d.Topo.Ifaces {
		ifc := &d.Topo.Ifaces[ii]
		if !d.Topo.Routers[ifc.Router].SNMPv3 {
			continue
		}
		// The /30 partner: flip the low bits .1 <-> .2.
		base := ifc.Addr.Mask(30)
		partner := base + 1
		if partner == ifc.Addr {
			partner = base + 2
		}
		if _, ok := d.Topo.Owner(partner); !ok {
			continue
		}
		targets = append(targets, target{addr: partner})
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	limit := s.Pairs * 4
	if limit > len(targets) {
		limit = len(targets)
	}

	classify := func(intra bool, cls int) {
		rows := []*table2Row{&res.all}
		if intra {
			rows = append(rows, &res.intra)
		} else {
			rows = append(rows, &res.inter)
		}
		for _, r := range rows {
			switch cls {
			case 0:
				r.yes++
			case 1:
				r.no++
			default:
				r.unknown++
			}
		}
	}

	for _, tg := range targets[:limit] {
		site := d.SiteAgents[rng.Intn(len(d.SiteAgents))]
		tr := d.Prober.Traceroute(site, tg.addr)
		if !tr.ReachedDst {
			continue
		}
		hops := tr.HopAddrs()
		if len(hops) < 2 {
			continue
		}
		penult := hops[len(hops)-2]
		if penult.IsPrivate() {
			continue
		}
		// Reveal reverse hops: direct RR, then the ingress-selected VPs.
		revHops := revealReverseHops(d, site, tg.addr)
		if len(revHops) == 0 {
			continue
		}
		intra := ip2as.SameAS(d.Mapper, penult, tg.addr)
		// Classification per the paper: "yes" if penult or an alias is
		// among the reverse hops; "no" if penult answers SNMPv3 (so we
		// have reliable alias info) but is absent; else unknown.
		onPath := false
		for _, h := range revHops {
			if h == penult || d.Alias.SNMP.SameRouter(h, penult) ||
				d.Alias.Midar.SameRouter(h, penult) || p2p.SameLink(h, penult) {
				onPath = true
				break
			}
		}
		switch {
		case onPath:
			classify(intra, 0)
		case d.Alias.SNMP.Known(penult):
			classify(intra, 1)
		default:
			classify(intra, 2)
		}
	}
	return res
}

// revealReverseHops issues the study's RR measurement: a direct RR ping
// from the site, then spoofed RR pings from the survey's closest VPs
// (§4.3 selection), returning the reverse-path stamps after the target.
func revealReverseHops(d *revtr.Deployment, site measure.Agent, target ipv4.Addr) []ipv4.Addr {
	rr := d.Prober.RRPing(site, target)
	if hops := extractAfterTarget(rr.Recorded, target); len(hops) > 0 {
		return hops
	}
	pfx, ok := d.Topo.BGPPrefixOf(target)
	if !ok {
		return nil
	}
	plan := d.IngressSvc.PlanFor(pfx, ingress.SelIngress)
	tried := 0
	for _, si := range plan.Order {
		vp := d.SiteAgents[si]
		if vp.Addr == site.Addr {
			continue
		}
		srr := d.Prober.SpoofedRRPing(vp, site.Addr, target)
		if hops := extractAfterTarget(srr.Recorded, target); len(hops) > 0 {
			return hops
		}
		tried++
		if tried >= 6 {
			break
		}
	}
	return nil
}

// extractAfterTarget returns the recorded RR addresses after the target's
// own stamp (or its /30 forward marker).
func extractAfterTarget(recorded []ipv4.Addr, target ipv4.Addr) []ipv4.Addr {
	var p2p alias.Slash30
	marker := -1
	for k, x := range recorded {
		if x == target {
			marker = k
		}
	}
	if marker < 0 {
		for k, x := range recorded {
			if p2p.SameLink(x, target) {
				marker = k
				break
			}
		}
	}
	if marker < 0 || marker+1 >= len(recorded) {
		return nil
	}
	return recorded[marker+1:]
}

func init() {
	register("table2", "Table 2: penultimate-hop symmetry by link type", func(ctx context.Context, s Scale, w io.Writer) error {
		res := runTable2(s)
		t := &Table{
			Title:  "Table 2 — penultimate traceroute hop also on the reverse path?",
			Header: []string{"link type", "Yes", "No", "Unknown", "Yes/(Yes+No)"},
		}
		t.AddRow(res.intra.cells("intradomain")...)
		t.AddRow(res.inter.cells("interdomain")...)
		t.AddRow(res.all.cells("all")...)
		t.Fprint(w)
		fmt.Fprintf(w, "  paper: intradomain 0.90, interdomain 0.57, all 0.81\n\n")
		return nil
	})
}
