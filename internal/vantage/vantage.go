// Package vantage places and manages the measurement infrastructure the
// Reverse Traceroute system coordinates: M-Lab-style spoofing-capable
// vantage point sites (hosted at colocation networks in the 2020
// deployment, at education networks in the 2016 one — the Fig 11
// contrast) and RIPE-Atlas-style probes in edge networks with per-probe
// rate limits.
package vantage

import (
	"fmt"
	"math/rand"

	"revtr/internal/detrand"
	"revtr/internal/measure"
	"revtr/internal/netsim/topology"
)

// Site is a spoofing-capable vantage point (an M-Lab site analogue).
type Site struct {
	Agent measure.Agent
}

// PlaceSites selects up to n vantage point sites on the topology: at
// colo and transit ASes in the 2020 vintage, mostly at education and
// stub networks in the 2016 one. A site needs a ping- and RR-responsive
// host in an AS that permits spoofing and does not filter options.
func PlaceSites(topo *topology.Topology, n int, vintage topology.Vintage, seed int64) []Site {
	rng := detrand.New(seed, "vantage.sites")
	var candidateASes []topology.ASN
	switch vintage {
	case topology.Vintage2020:
		candidateASes = append(candidateASes, topo.ASesByTier(topology.Colo)...)
		candidateASes = append(candidateASes, topo.ASesByTier(topology.Transit)...)
	case topology.Vintage2016:
		// Education networks: stubs homed behind NRENs, then other stubs.
		for _, as := range topo.ASes {
			if as.Tier != topology.Stub {
				continue
			}
			for _, nb := range as.Neighbors {
				if nb.Rel == topology.RelProvider && topo.ASes[nb.ASN].Tier == topology.NREN {
					candidateASes = append(candidateASes, as.ASN)
					break
				}
			}
		}
		candidateASes = append(candidateASes, topo.ASesByTier(topology.Stub)...)
	}
	var sites []Site
	used := map[topology.ASN]bool{}
	for _, asn := range candidateASes {
		if len(sites) >= n {
			break
		}
		as := topo.ASes[asn]
		if used[asn] || !as.AllowsSpoofing || as.FiltersOptions {
			continue
		}
		h := pickResponsiveHost(topo, as, rng)
		if h == nil {
			continue
		}
		used[asn] = true
		a := measure.AgentFromHost(topo, h)
		a.Name = fmt.Sprintf("site-%03d", len(sites))
		sites = append(sites, Site{Agent: a})
	}
	return sites
}

func pickResponsiveHost(topo *topology.Topology, as *topology.AS, rng *rand.Rand) *topology.Host {
	perm := rng.Perm(len(as.Hosts))
	for _, i := range perm {
		h := &topo.Hosts[as.Hosts[i]]
		if h.PingResponsive && h.RRResponsive {
			return h
		}
	}
	return nil
}

// Probe is a RIPE-Atlas-style probe: it can run traceroutes toward
// sources but is rate limited.
type Probe struct {
	Agent measure.Agent
	// Credits is the remaining measurement budget (traceroutes).
	Credits int
}

// PlaceProbes places up to n probes at hosts in distinct randomly-chosen
// ASes (stub-biased, like the real Atlas), each with the given credit
// budget.
func PlaceProbes(topo *topology.Topology, n int, credits int, seed int64) []*Probe {
	rng := detrand.New(seed, "vantage.probes")
	order := rng.Perm(len(topo.ASes))
	var probes []*Probe
	for _, ai := range order {
		if len(probes) >= n {
			break
		}
		as := topo.ASes[ai]
		// Atlas probes are mostly in edge networks; skip the backbone.
		if as.Tier == topology.Tier1 {
			continue
		}
		h := pickResponsiveHost(topo, as, rng)
		if h == nil {
			continue
		}
		a := measure.AgentFromHost(topo, h)
		a.Name = fmt.Sprintf("probe-%04d", len(probes))
		probes = append(probes, &Probe{Agent: a, Credits: credits})
	}
	return probes
}

// Spend consumes credits; it reports false when the budget is exhausted
// (the RIPE rate-limit behaviour the atlas design works around, Q1).
func (p *Probe) Spend(n int) bool {
	if p.Credits < n {
		return false
	}
	p.Credits -= n
	return true
}
