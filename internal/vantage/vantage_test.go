package vantage

import (
	"testing"

	"revtr/internal/netsim/topology"
)

func topoFor(t testing.TB) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultConfig(400)
	cfg.Seed = 21
	return topology.Generate(cfg)
}

func TestPlaceSites2020AtColos(t *testing.T) {
	topo := topoFor(t)
	sites := PlaceSites(topo, 15, topology.Vintage2020, 1)
	if len(sites) == 0 {
		t.Fatal("no sites placed")
	}
	colo := 0
	for _, s := range sites {
		as := topo.ASes[s.Agent.AS]
		if !as.AllowsSpoofing {
			t.Fatalf("site %s in non-spoofing AS", s.Agent.Name)
		}
		if as.FiltersOptions {
			t.Fatalf("site %s in option-filtering AS", s.Agent.Name)
		}
		if as.Tier == topology.Colo {
			colo++
		}
	}
	if colo == 0 {
		t.Error("no 2020 sites at colo ASes")
	}
}

func TestPlaceSites2016AvoidColo(t *testing.T) {
	topo := topoFor(t)
	sites := PlaceSites(topo, 15, topology.Vintage2016, 1)
	for _, s := range sites {
		if topo.ASes[s.Agent.AS].Tier == topology.Colo {
			t.Fatalf("2016 site at a colo AS")
		}
	}
}

func TestSitesDistinctASes(t *testing.T) {
	topo := topoFor(t)
	sites := PlaceSites(topo, 30, topology.Vintage2020, 1)
	seen := map[topology.ASN]bool{}
	for _, s := range sites {
		if seen[s.Agent.AS] {
			t.Fatal("two sites in one AS")
		}
		seen[s.Agent.AS] = true
	}
}

func TestPlaceProbes(t *testing.T) {
	topo := topoFor(t)
	probes := PlaceProbes(topo, 50, 10, 1)
	if len(probes) < 40 {
		t.Fatalf("only %d probes placed", len(probes))
	}
	seen := map[topology.ASN]bool{}
	for _, p := range probes {
		if topo.ASes[p.Agent.AS].Tier == topology.Tier1 {
			t.Fatal("probe in a tier-1 AS")
		}
		if seen[p.Agent.AS] {
			t.Fatal("two probes in one AS")
		}
		seen[p.Agent.AS] = true
	}
}

func TestProbeSpend(t *testing.T) {
	p := &Probe{Credits: 3}
	if !p.Spend(2) {
		t.Fatal("spend refused with budget")
	}
	if p.Spend(2) {
		t.Fatal("overspend allowed")
	}
	if !p.Spend(1) {
		t.Fatal("exact spend refused")
	}
	if p.Spend(1) {
		t.Fatal("spend from empty budget")
	}
}

func TestPlacementDeterministic(t *testing.T) {
	topo := topoFor(t)
	a := PlaceSites(topo, 10, topology.Vintage2020, 5)
	b := PlaceSites(topo, 10, topology.Vintage2020, 5)
	if len(a) != len(b) {
		t.Fatal("site counts differ")
	}
	for i := range a {
		if a[i].Agent.Addr != b[i].Agent.Addr {
			t.Fatal("site placement not deterministic")
		}
	}
}
