package alias

import (
	"testing"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
)

func topoFor(t testing.TB) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultConfig(300)
	cfg.Seed = 9
	return topology.Generate(cfg)
}

func TestMidarPrecision(t *testing.T) {
	topo := topoFor(t)
	m := NewMidar(topo, 0.5, 1)
	// Every positive answer must be true (MIDAR favours precision).
	checked := 0
	for _, r := range topo.Routers[:200] {
		al := topo.Aliases(r.ID)
		if !m.Known(al[0]) {
			continue
		}
		for _, a := range al[1:] {
			if m.SameRouter(al[0], a) {
				if !topo.SameRouter(al[0], a) {
					t.Fatalf("false positive: %s %s", al[0], a)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("midar resolved nothing")
	}
}

func TestMidarCoverage(t *testing.T) {
	topo := topoFor(t)
	m := NewMidar(topo, 0.4, 1)
	known := 0
	for _, r := range topo.Routers {
		if m.Known(r.Loopback) {
			known++
		}
	}
	frac := float64(known) / float64(len(topo.Routers))
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("coverage %.2f not near 0.4", frac)
	}
}

func TestMidarNoCrossRouterAliases(t *testing.T) {
	topo := topoFor(t)
	m := NewMidar(topo, 1.0, 1)
	a := topo.Routers[0].Loopback
	b := topo.Routers[1].Loopback
	if m.SameRouter(a, b) {
		t.Error("different routers reported as aliases")
	}
	if m.SameRouter(a, a) != true {
		t.Error("self-alias failed")
	}
}

func TestSNMPIdentifiers(t *testing.T) {
	topo := topoFor(t)
	s := newSNMP(topo, 1, 1.0, 1.0)
	responded := 0
	for _, r := range topo.Routers {
		if !r.SNMPv3 {
			if s.Known(r.Loopback) {
				t.Fatal("non-SNMP router responded")
			}
			continue
		}
		responded++
		al := topo.Aliases(r.ID)
		id0, ok := s.Identifier(al[0])
		if !ok {
			t.Fatal("SNMP router silent on loopback")
		}
		for _, a := range al[1:] {
			id, ok := s.Identifier(a)
			if !ok || id != id0 {
				t.Fatalf("identifier mismatch on %s", a)
			}
			if !s.SameRouter(al[0], a) {
				t.Fatal("SameRouter false for same identifier")
			}
		}
	}
	if responded == 0 {
		t.Fatal("no SNMPv3 responders in topology")
	}
}

func TestSNMPPartialResponse(t *testing.T) {
	topo := topoFor(t)
	s := newSNMP(topo, 1, 0.0001, 1.0)
	// With AllAddrsFrac≈0 nearly every responder answers only on its
	// first address.
	multi := 0
	for _, r := range topo.Routers {
		if !r.SNMPv3 {
			continue
		}
		al := topo.Aliases(r.ID)
		n := 0
		for _, a := range al {
			if s.Known(a) {
				n++
			}
		}
		if n > 1 {
			multi++
		}
	}
	if multi > len(topo.Routers)/100 {
		t.Errorf("too many multi-address responders: %d", multi)
	}
}

func TestSlash30(t *testing.T) {
	var p Slash30
	a := ipv4.MustParseAddr("10.0.0.1")
	b := ipv4.MustParseAddr("10.0.0.2")
	c := ipv4.MustParseAddr("10.0.0.5")
	if !p.SameLink(a, b) {
		t.Error(".1/.2 should share /30")
	}
	if p.SameLink(a, c) {
		t.Error(".1/.5 do not share /30")
	}
	if p.SameLink(a, a) {
		t.Error("identical addresses are not a link")
	}
}

func TestCombinedFallsThrough(t *testing.T) {
	topo := topoFor(t)
	c := &Combined{
		Midar: NewMidar(topo, 0.0, 1), // empty
		SNMP:  newSNMP(topo, 1, 1, 1),
	}
	for _, r := range topo.Routers {
		if r.SNMPv3 {
			al := topo.Aliases(r.ID)
			if len(al) > 1 && !c.SameRouter(al[0], al[1]) {
				t.Fatal("combined did not fall through to SNMP")
			}
			return
		}
	}
}

func TestTruthResolver(t *testing.T) {
	topo := topoFor(t)
	tr := Truth{Topo: topo}
	r := topo.Routers[0]
	al := topo.Aliases(r.ID)
	if len(al) > 1 && !tr.SameRouter(al[0], al[1]) {
		t.Error("truth resolver failed on real aliases")
	}
	if !tr.Known(al[0]) {
		t.Error("truth resolver does not know a real address")
	}
}
