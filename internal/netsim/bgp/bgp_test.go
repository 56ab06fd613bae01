package bgp

import (
	"testing"

	"revtr/internal/netsim/topology"
)

func testTopo(t testing.TB, n int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultConfig(n)
	cfg.Seed = 11
	return topology.Generate(cfg)
}

func TestTreeReachability(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	for _, dst := range []topology.ASN{0, 5, 50, 150, 299} {
		tr := r.TreeTo(dst)
		for a := range topo.ASes {
			if topology.ASN(a) == dst {
				if tr.Class[a] != ClassOrigin {
					t.Fatalf("dst %d class %v", dst, tr.Class[a])
				}
				continue
			}
			if tr.Class[a] == ClassNone {
				t.Fatalf("AS%d has no route to AS%d", a, dst)
			}
			if p := tr.Path(topology.ASN(a)); p == nil || p[len(p)-1] != dst {
				t.Fatalf("AS%d path to AS%d broken: %v", a, dst, p)
			}
		}
	}
}

// edgeDir classifies a traffic-path hop x->y by x's relationship with y:
// +1 up (y is x's provider), 0 flat (peer), -1 down (customer).
func edgeDir(topo *topology.Topology, x, y topology.ASN) int {
	nb := topo.ASes[x].Neighbor(y)
	if nb == nil {
		return -99
	}
	switch nb.Rel {
	case topology.RelProvider:
		return 1
	case topology.RelPeer:
		return 0
	}
	return -1
}

// TestTreeValleyFree: every selected path must match up* peer? down*.
func TestTreeValleyFree(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	for dsti := 0; dsti < len(topo.ASes); dsti += 17 {
		dst := topology.ASN(dsti)
		tr := r.TreeTo(dst)
		for a := range topo.ASes {
			path := tr.Path(topology.ASN(a))
			if path == nil {
				continue
			}
			phase := 0 // 0=climbing, 1=peered, 2=descending
			for i := 0; i+1 < len(path); i++ {
				d := edgeDir(topo, path[i], path[i+1])
				switch d {
				case -99:
					t.Fatalf("path %v uses non-adjacent hop", path)
				case 1:
					if phase != 0 {
						t.Fatalf("valley in path %v (up after peer/down)", path)
					}
				case 0:
					if phase != 0 {
						t.Fatalf("second peer edge in path %v", path)
					}
					phase = 1
				case -1:
					phase = 2
				}
			}
		}
	}
}

func TestTreePathLengthsConsistent(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	tr := r.TreeTo(42)
	for a := range topo.ASes {
		if p := tr.Path(topology.ASN(a)); p != nil {
			if len(p)-1 != int(tr.Len[a]) {
				t.Fatalf("AS%d: path len %d != Len %d", a, len(p)-1, tr.Len[a])
			}
		}
	}
}

// TestTreePrefersCustomer: if an AS has any customer route, its selection
// must be a customer route even when a shorter peer/provider path exists.
func TestTreeClassOrdering(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	tr := r.TreeTo(77)
	for a, as := range topo.ASes {
		if tr.Class[a] == ClassNone || tr.Class[a] == ClassOrigin {
			continue
		}
		nb := as.Neighbor(tr.Next[a])
		if nb == nil {
			t.Fatalf("AS%d next hop not a neighbor", a)
		}
		wantRel := map[Class]topology.Rel{
			ClassCustomer: topology.RelCustomer,
			ClassPeer:     topology.RelPeer,
			ClassProvider: topology.RelProvider,
		}[tr.Class[a]]
		if nb.Rel != wantRel {
			t.Fatalf("AS%d class %v but next-hop rel %v", a, tr.Class[a], nb.Rel)
		}
	}
}

func TestTreeCacheEviction(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 2)
	t1 := r.TreeTo(1)
	r.TreeTo(2)
	r.TreeTo(3) // evicts tree 1
	t1b := r.TreeTo(1)
	if t1 == t1b {
		t.Error("expected recomputation after eviction")
	}
	if t1.Next[100] != t1b.Next[100] {
		t.Error("recomputed tree differs")
	}
}

func TestSetTieBreakInvalidates(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	g0 := r.Generation()
	r.TreeTo(1)
	r.SetTieBreak(DefaultTieBreak(2))
	if r.Generation() == g0 {
		t.Error("generation did not advance")
	}
}

// TestPathVectorMatchesTree: a single-site announcement attached exactly
// like an existing AS must reproduce the tree computation.
func TestPathVectorMatchesTree(t *testing.T) {
	topo := testTopo(t, 300)
	tb := DefaultTieBreak(1)
	r := NewRouting(topo, tb, 16)
	// Local preference hashes on neighbor identity; the clone origin has
	// a different ASN than dst, so equivalence is checked pref-free.
	r.SetPolicy(tb, NoPref)
	for _, dst := range []topology.ASN{3, 60, 200} {
		tr := r.TreeTo(dst)
		site := AnnSite{Name: "clone"}
		for _, nb := range topo.ASes[dst].Neighbors {
			site.Neighbors = append(site.Neighbors, AnnNeighbor{
				ASN: nb.ASN,
				Rel: nb.Rel.Invert(), // origin's rel from the neighbor's view
			})
		}
		ann := &Announcement{Origin: topology.ASN(len(topo.ASes)), Sites: []AnnSite{site}}
		routes := Compute(topo, ann, tb, NoPref)
		for a := range topo.ASes {
			if topology.ASN(a) == dst {
				continue // dst competes with the clone announcement; skip
			}
			rt := routes.Per[a]
			if (rt.Class == ClassNone) != (tr.Class[a] == ClassNone) {
				t.Fatalf("dst %d AS%d: reachability mismatch", dst, a)
			}
			if rt.Class == ClassNone {
				continue
			}
			if rt.Class != tr.Class[a] {
				t.Fatalf("dst %d AS%d: class %v vs tree %v", dst, a, rt.Class, tr.Class[a])
			}
			if len(rt.Path) != int(tr.Len[a]) {
				t.Fatalf("dst %d AS%d: pathlen %d vs tree %d", dst, a, len(rt.Path), tr.Len[a])
			}
		}
	}
}

func findStubWithProviders(topo *topology.Topology, k int) *topology.AS {
	for _, as := range topo.ASes {
		if as.Tier != topology.Stub {
			continue
		}
		n := 0
		for _, nb := range as.Neighbors {
			if nb.Rel == topology.RelProvider {
				n++
			}
		}
		if n >= k {
			return as
		}
	}
	return nil
}

func TestPoisoningDivertsTraffic(t *testing.T) {
	topo := testTopo(t, 300)
	tb := DefaultTieBreak(1)
	stub := findStubWithProviders(topo, 2)
	if stub == nil {
		t.Skip("no multihomed stub")
	}
	var provs []topology.ASN
	for _, nb := range stub.Neighbors {
		if nb.Rel == topology.RelProvider {
			provs = append(provs, nb.ASN)
		}
	}
	origin := topology.ASN(len(topo.ASes))
	site := AnnSite{Name: "s", Neighbors: []AnnNeighbor{
		{ASN: provs[0], Rel: topology.RelCustomer},
		{ASN: provs[1], Rel: topology.RelCustomer},
	}}
	base := Compute(topo, &Announcement{Origin: origin, Sites: []AnnSite{site}}, tb, nil)
	// Find a transit AS that carries traffic (appears as an intermediate).
	carrier := topology.ASN(topology.None)
	for a := range topo.ASes {
		rt := base.Per[a]
		if len(rt.Path) >= 2 && rt.Path[0] != provs[0] && rt.Path[0] != provs[1] {
			carrier = rt.Path[0]
			break
		}
	}
	if carrier == topology.None {
		t.Skip("no intermediate carrier found")
	}
	poisoned := site
	poisoned.Poison = []topology.ASN{carrier}
	res := Compute(topo, &Announcement{Origin: origin, Sites: []AnnSite{poisoned}}, tb, nil)
	if res.Per[carrier].Site != -1 {
		t.Fatalf("poisoned AS%d still has a route", carrier)
	}
	for a := range topo.ASes {
		rt := res.Per[a]
		if rt.Site < 0 {
			continue
		}
		// The announced path ends with the poison stub [poison..., origin];
		// only the hops before it are actually traversed.
		real := rt.Path[:len(rt.Path)-1-len(poisoned.Poison)]
		for _, hop := range real {
			if hop == carrier {
				t.Fatalf("AS%d still routes through poisoned AS%d: %v", a, carrier, rt.Path)
			}
		}
	}
}

func TestNoExportCommunity(t *testing.T) {
	topo := testTopo(t, 300)
	tb := DefaultTieBreak(1)
	stub := findStubWithProviders(topo, 1)
	var prov topology.ASN
	for _, nb := range stub.Neighbors {
		if nb.Rel == topology.RelProvider {
			prov = nb.ASN
			break
		}
	}
	origin := topology.ASN(len(topo.ASes))
	// Find a neighbor of prov that, without communities, routes via prov.
	base := Compute(topo, &Announcement{Origin: origin, Sites: []AnnSite{{
		Neighbors: []AnnNeighbor{{ASN: prov, Rel: topology.RelCustomer}},
	}}}, tb, nil)
	var blocked topology.ASN = topology.None
	for _, nb := range topo.ASes[prov].Neighbors {
		if base.Per[nb.ASN].Next == prov {
			blocked = nb.ASN
			break
		}
	}
	if blocked == topology.None {
		t.Skip("no neighbor routes via prov")
	}
	res := Compute(topo, &Announcement{Origin: origin, Sites: []AnnSite{{
		Neighbors: []AnnNeighbor{{ASN: prov, Rel: topology.RelCustomer, NoExportTo: []topology.ASN{blocked}}},
	}}}, tb, nil)
	if res.Per[blocked].Next == prov {
		t.Fatalf("AS%d still learns via AS%d despite no-export", blocked, prov)
	}
}

func TestAnycastCatchments(t *testing.T) {
	topo := testTopo(t, 300)
	tb := DefaultTieBreak(1)
	// Two sites at two different transit providers.
	transits := topo.ASesByTier(topology.Transit)
	if len(transits) < 2 {
		t.Skip("not enough transit ASes")
	}
	origin := topology.ASN(len(topo.ASes))
	ann := &Announcement{Origin: origin, Sites: []AnnSite{
		{Name: "a", Neighbors: []AnnNeighbor{{ASN: transits[0], Rel: topology.RelCustomer}}},
		{Name: "b", Neighbors: []AnnNeighbor{{ASN: transits[len(transits)/2], Rel: topology.RelCustomer}}},
	}}
	res := Compute(topo, ann, tb, nil)
	catchment := make([]int, len(ann.Sites))
	for _, rt := range res.Per {
		if rt.Site >= 0 {
			catchment[rt.Site]++
		}
	}
	if catchment[0] == 0 || catchment[1] == 0 {
		t.Fatalf("degenerate catchments: %v", catchment)
	}
	// Valley-free for path-vector routes too.
	for a := range topo.ASes {
		rt := res.Per[a]
		if rt.Class == ClassNone {
			continue
		}
		full := append([]topology.ASN{topology.ASN(a)}, rt.Path...)
		phase := 0
		for i := 0; i+1 < len(full); i++ {
			if full[i+1] == origin || containsASN(ann.Sites[rt.Site].Poison, full[i+1]) {
				break
			}
			d := edgeDir(topo, full[i], full[i+1])
			switch d {
			case -99:
				t.Fatalf("AS%d path uses non-adjacent hop: %v", a, full)
			case 1:
				if phase != 0 {
					t.Fatalf("valley in %v", full)
				}
			case 0:
				if phase != 0 {
					t.Fatalf("double peer in %v", full)
				}
				phase = 1
			case -1:
				phase = 2
			}
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	topo := testTopo(t, 300)
	tb := DefaultTieBreak(9)
	origin := topology.ASN(len(topo.ASes))
	ann := &Announcement{Origin: origin, Sites: []AnnSite{{
		Neighbors: []AnnNeighbor{{ASN: 20, Rel: topology.RelCustomer}},
	}}}
	r1 := Compute(topo, ann, tb, nil)
	r2 := Compute(topo, ann, tb, nil)
	for a := range topo.ASes {
		if r1.Per[a].Next != r2.Per[a].Next || r1.Per[a].Site != r2.Per[a].Site {
			t.Fatalf("nondeterministic at AS%d", a)
		}
	}
}

func BenchmarkTreeTo(b *testing.B) {
	topo := testTopo(b, 1000)
	r := NewRouting(topo, DefaultTieBreak(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invalidate()
		r.TreeTo(topology.ASN(i % len(topo.ASes)))
	}
}
