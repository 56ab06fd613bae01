package topology

import (
	"fmt"
	"hash/fnv"
	"testing"

	"revtr/internal/netsim/ipv4"
)

func genSmall(t testing.TB) *Topology {
	t.Helper()
	cfg := DefaultConfig(300)
	cfg.Seed = 7
	return Generate(cfg)
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t)
	b := genSmall(t)
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ:\n%s\n%s", a.Stats(), b.Stats())
	}
	if len(a.Routers) != len(b.Routers) {
		t.Fatal("router counts differ")
	}
	for i := range a.Routers {
		if a.Routers[i].Loopback != b.Routers[i].Loopback || a.Routers[i].Stamp != b.Routers[i].Stamp {
			t.Fatalf("router %d differs", i)
		}
	}
}

func TestEveryNonTier1HasProvider(t *testing.T) {
	tp := genSmall(t)
	for _, as := range tp.ASes {
		if as.Tier == Tier1 {
			continue
		}
		found := false
		for _, nb := range as.Neighbors {
			if nb.Rel == RelProvider {
				found = true
			}
		}
		if !found {
			t.Errorf("AS%d (%s) has no provider", as.ASN, as.Tier)
		}
	}
}

func TestCustomerGraphAcyclic(t *testing.T) {
	tp := genSmall(t)
	// Providers must always have been created earlier (lower ASN) except
	// stubs peering; check provider ASN < customer ASN never violated the
	// DAG property via cycle detection.
	color := make([]int, len(tp.ASes)) // 0 white, 1 gray, 2 black
	var visit func(a ASN) bool
	visit = func(a ASN) bool {
		if color[a] == 1 {
			return false
		}
		if color[a] == 2 {
			return true
		}
		color[a] = 1
		for _, nb := range tp.ASes[a].Neighbors {
			if nb.Rel == RelCustomer { // descend into customers
				if !visit(nb.ASN) {
					return false
				}
			}
		}
		color[a] = 2
		return true
	}
	for _, as := range tp.ASes {
		if !visit(as.ASN) {
			t.Fatalf("customer cycle involving AS%d", as.ASN)
		}
	}
}

func TestRelationshipSymmetry(t *testing.T) {
	tp := genSmall(t)
	for _, as := range tp.ASes {
		for _, nb := range as.Neighbors {
			back := tp.ASes[nb.ASN].Neighbor(as.ASN)
			if back == nil {
				t.Fatalf("AS%d -> AS%d not symmetric", as.ASN, nb.ASN)
			}
			if back.Rel != nb.Rel.Invert() {
				t.Fatalf("AS%d-%d rel mismatch: %v vs %v", as.ASN, nb.ASN, nb.Rel, back.Rel)
			}
			if len(nb.Link) == 0 {
				t.Fatalf("AS%d-%d adjacency has no router link", as.ASN, nb.ASN)
			}
		}
	}
}

func TestAddressesUnique(t *testing.T) {
	tp := genSmall(t)
	seen := map[ipv4.Addr]string{}
	check := func(a ipv4.Addr, what string) {
		if prev, dup := seen[a]; dup {
			t.Fatalf("address %s assigned to both %s and %s", a, prev, what)
		}
		seen[a] = what
	}
	for _, r := range tp.Routers {
		check(r.Loopback, "loopback")
	}
	for _, i := range tp.Ifaces {
		check(i.Addr, "iface")
	}
	for _, h := range tp.Hosts {
		check(h.Addr, "host")
	}
}

func TestAddressOwnership(t *testing.T) {
	tp := genSmall(t)
	for _, i := range tp.Ifaces {
		r, ok := tp.RouterOf(i.Addr)
		if !ok || r != i.Router {
			t.Fatalf("iface %s not mapped to its router", i.Addr)
		}
	}
	for hi := range tp.Hosts {
		h, ok := tp.HostOf(tp.Hosts[hi].Addr)
		if !ok || h.ID != tp.Hosts[hi].ID {
			t.Fatalf("host %s not mapped", tp.Hosts[hi].Addr)
		}
	}
}

func TestOwnerASAndBlockAS(t *testing.T) {
	tp := genSmall(t)
	mismatches := 0
	for ii := range tp.Ifaces {
		i := &tp.Ifaces[ii]
		asn, ok := tp.OwnerAS(i.Addr)
		if !ok {
			t.Fatalf("no owner for %s", i.Addr)
		}
		if asn != tp.Routers[i.Router].AS {
			t.Fatalf("OwnerAS(%s) = %d, router AS = %d", i.Addr, asn, tp.Routers[i.Router].AS)
		}
		blk, ok := tp.BlockAS(i.Addr)
		if !ok {
			t.Fatalf("no block owner for %s", i.Addr)
		}
		if !tp.ASes[blk].Block.Contains(i.Addr) {
			t.Fatalf("BlockAS(%s)=%d block mismatch", i.Addr, blk)
		}
		if blk != asn {
			mismatches++ // interdomain /30s: expected for border interfaces
		}
	}
	if mismatches == 0 {
		t.Error("no block/owner mismatches: interdomain /30 allocation not exercised")
	}
	// Private addresses have no owner.
	if _, ok := tp.OwnerAS(ipv4.MustParseAddr("10.0.0.1")); ok {
		t.Error("private address mapped to an AS")
	}
	if _, ok := tp.BlockAS(ipv4.MustParseAddr("10.0.0.1")); ok {
		t.Error("private address block-mapped to an AS")
	}
}

// TestIntraConnected: within each AS every router can reach every other
// over intradomain links — required for FIB construction.
func TestIntraConnected(t *testing.T) {
	tp := genSmall(t)
	for _, as := range tp.ASes {
		if len(as.Routers) == 0 {
			t.Fatalf("AS%d has no routers", as.ASN)
		}
		seen := map[RouterID]bool{as.Routers[0]: true}
		stack := []RouterID{as.Routers[0]}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range tp.IntraNeighbors(r) {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		if len(seen) != len(as.Routers) {
			t.Fatalf("AS%d intra graph disconnected: %d/%d", as.ASN, len(seen), len(as.Routers))
		}
	}
}

func TestInterLinksConnectBorders(t *testing.T) {
	tp := genSmall(t)
	for li := range tp.Links {
		l := &tp.Links[li]
		r0 := tp.Routers[tp.Ifaces[l.I0].Router]
		r1 := tp.Routers[tp.Ifaces[l.I1].Router]
		if l.Inter {
			if r0.AS == r1.AS {
				t.Fatalf("inter link %d within AS%d", l.ID, r0.AS)
			}
			if r0.Role != RoleBorder || r1.Role != RoleBorder {
				t.Fatalf("inter link %d not between borders", l.ID)
			}
		} else if r0.AS != r1.AS {
			t.Fatalf("intra link %d crosses ASes", l.ID)
		}
	}
}

func TestP2PAddressesShareSlash30(t *testing.T) {
	tp := genSmall(t)
	for li := range tp.Links {
		l := &tp.Links[li]
		a0, a1 := tp.Ifaces[l.I0].Addr, tp.Ifaces[l.I1].Addr
		if a0.Mask(30) != a1.Mask(30) {
			t.Fatalf("link %d endpoints %s and %s not in same /30", l.ID, a0, a1)
		}
	}
}

func TestConesTier1Largest(t *testing.T) {
	tp := genSmall(t)
	maxStub, minT1 := 0, 1<<30
	for _, as := range tp.ASes {
		switch as.Tier {
		case Tier1:
			if as.ConeSize < minT1 {
				minT1 = as.ConeSize
			}
		case Stub:
			if as.ConeSize > maxStub {
				maxStub = as.ConeSize
			}
			if as.ConeSize != 1 {
				t.Fatalf("stub AS%d cone %d != 1", as.ASN, as.ConeSize)
			}
		}
	}
	if minT1 <= maxStub {
		t.Fatalf("tier-1 min cone %d <= stub max cone %d", minT1, maxStub)
	}
}

func TestAliases(t *testing.T) {
	tp := genSmall(t)
	r := tp.Routers[0]
	al := tp.Aliases(r.ID)
	if len(al) != len(r.Ifaces)+1 {
		t.Fatalf("alias count %d != %d", len(al), len(r.Ifaces)+1)
	}
	for _, a := range al[1:] {
		if !tp.SameRouter(al[0], a) {
			t.Fatalf("%s and %s should be same router", al[0], a)
		}
	}
}

func TestHostsInPrefixes(t *testing.T) {
	tp := genSmall(t)
	for _, h := range tp.Hosts {
		in := false
		for _, p := range tp.ASes[h.AS].Prefixes {
			if p.Contains(h.Addr) {
				in = true
			}
		}
		if !in {
			t.Fatalf("host %s not inside its AS prefixes", h.Addr)
		}
		if !h.PingResponsive && h.RRResponsive {
			t.Fatalf("host %s RR-responsive but not ping-responsive", h.Addr)
		}
	}
}

func TestResponsivenessRates(t *testing.T) {
	cfg := DefaultConfig(600)
	tp := Generate(cfg)
	ping, rr := 0, 0
	for _, h := range tp.Hosts {
		if h.PingResponsive {
			ping++
		}
		if h.RRResponsive {
			rr++
		}
	}
	pr := float64(ping) / float64(len(tp.Hosts))
	if pr < 0.65 || pr > 0.81 {
		t.Errorf("ping-responsive rate %.2f outside [0.65,0.81]", pr)
	}
	rrOfPing := float64(rr) / float64(ping)
	if rrOfPing < 0.70 || rrOfPing > 0.86 {
		t.Errorf("RR|ping rate %.2f outside [0.70,0.86]", rrOfPing)
	}
}

func TestConfig2016LessColo(t *testing.T) {
	t20 := Generate(Config{Seed: 1, NumASes: 800, Vintage: Vintage2020})
	t16 := Generate(Config{Seed: 1, NumASes: 800, Vintage: Vintage2016})
	n20 := len(t20.ASesByTier(Colo))
	n16 := len(t16.ASesByTier(Colo))
	if n16 >= n20 {
		t.Errorf("2016 colo count %d >= 2020 count %d", n16, n20)
	}
}

func TestGeneratePanicsOnTinyConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on tiny config")
		}
	}()
	cfg := DefaultConfig(100)
	cfg.NumASes = 2
	Generate(cfg)
}

// TestValidateASFloor: Validate and Generate share one floor, so every
// -ases value Validate turns away is one Generate would have panicked
// on, and every value it lets through generates.
func TestValidateASFloor(t *testing.T) {
	for _, tc := range []struct {
		ases int
		ok   bool
	}{{-3, false}, {0, false}, {5, false}, {8, true}} {
		cfg := DefaultConfig(tc.ases)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%d ASes: Validate = %v, want ok = %v", tc.ases, err, tc.ok)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			Generate(cfg)
			return
		}()
		if panicked == tc.ok {
			t.Errorf("%d ASes: Generate panicked = %v, Validate said ok = %v", tc.ases, panicked, tc.ok)
		}
	}
}

// fingerprint hashes every AS, router, interface, link and host of a
// generated topology, every field included.
func fingerprint(t *Topology) uint64 {
	h := fnv.New64a()
	for _, as := range t.ASes {
		fmt.Fprintf(h, "%+v\n", *as)
	}
	for _, r := range t.Routers {
		fmt.Fprintf(h, "%+v\n", *r)
	}
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", t.Ifaces, t.Links, t.Hosts)
	return h.Sum64()
}

// TestGenerateGolden pins the generated Internet of both eras: a
// generator change that moves one random draw or one threshold changes
// a fingerprint. The constants were computed when every generator
// parameter was still a Config field, so they also pin that moving the
// parameters into constants and the era table changed nothing.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		vintage Vintage
		seed    int64
		want    uint64
	}{
		{Vintage2020, 1, 0x224f2286f2090ee},
		{Vintage2020, 2, 0xab292bb43787aabb},
		{Vintage2020, 3, 0x81571004b9b7c991},
		{Vintage2016, 1, 0x40505780c3793785},
		{Vintage2016, 2, 0x8c19b07e29205804},
		{Vintage2016, 3, 0xa6aea39ed264d0f6},
	} {
		got := fingerprint(Generate(Config{Seed: tc.seed, NumASes: 300, Vintage: tc.vintage}))
		if got != tc.want {
			t.Errorf("vintage %d seed %d: fingerprint %#x, want %#x", tc.vintage, tc.seed, got, tc.want)
		}
	}
}
