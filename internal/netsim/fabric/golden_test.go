package fabric_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/simtest"
)

// goldenDigests pins the data plane bit for bit: one FNV-64a per
// (simtest seed, mode) over every router trace, delivery (bytes, To,
// TimeUS, Site), ReachedDst flag and the five conservation counters of
// goldenPackets seeded injections. The constants were computed on the
// commit before the forwarding step was made allocation- and lock-free
// (PR 15's parent); a change that moves any forwarding decision, option
// stamp or timestamp fails here. Regenerate only for a change that means
// to alter forwarding, by running with -v and copying the logged values.
var goldenDigests = map[string]uint64{
	"seed1/clean":    0x54fdc43014708eb1,
	"seed1/faulty":   0xbafd0cf3f3b38f1b,
	"seed1/linkdown": 0x7d9057b25b1dc848,
	"seed2/clean":    0x3e52af049b4eca0f,
	"seed2/faulty":   0x034aae7eaf4def78,
	"seed2/linkdown": 0x46ad8b05318a02da,
	"seed3/clean":    0xc3e4feea376faf9e,
	"seed3/faulty":   0x816ac0c7e34331ef,
	"seed3/linkdown": 0x7916936558da7e0e,
}

const goldenPackets = 2400

func TestGoldenForwardingDigest(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []string{"clean", "faulty", "linkdown"} {
			name := fmt.Sprintf("seed%d/%s", seed, mode)
			t.Run(name, func(t *testing.T) {
				got := goldenRun(t, seed, mode)
				t.Logf("%q: %#016x,", name, got)
				if want := goldenDigests[name]; got != want {
					t.Errorf("forwarding digest %#016x, want %#016x: a forwarding decision, stamp or timestamp moved", got, want)
				}
			})
		}
	}
}

// goldenRun builds the seed's world in the given mode, injects the seeded
// packet mix and digests everything the fabric reports about it.
func goldenRun(t *testing.T, seed int64, mode string) uint64 {
	var plan *faults.Plan
	if mode == "faulty" {
		plan = &faults.Plan{Seed: uint64(seed), LinkLoss: 0.03, ICMPFrac: 0.4, ICMPPass: 0.5, FlapFrac: 0.15}
	}
	env := simtest.NewFaulty(t, 300, seed, plan)
	topo, f := env.Topo, env.Fabric
	svc := goldenAnycast(topo, f, seed)

	rng := rand.New(rand.NewSource(seed))
	if mode == "linkdown" {
		// Warm both tree caches, then fail links and invalidate: the
		// digest covers the recomputed trees, not first-use ones.
		goldenInject(f, topo, svc, rand.New(rand.NewSource(seed)), 200, nil)
		downed := 0
		for downed < 150 {
			lk := &topo.Links[rng.Intn(len(topo.Links))]
			if !lk.Down {
				lk.Down = true
				downed++
			}
		}
		f.InvalidateRoutes()
	}

	h := fnv.New64a()
	goldenInject(f, topo, svc, rng, goldenPackets, h)
	for _, n := range []uint64{f.HopsForwarded(), f.PacketsInjected(), f.PacketsDelivered(), f.PacketsDropped(), f.PacketsAbsorbed()} {
		put(h, n)
	}
	return h.Sum64()
}

// goldenAnycast announces one anycast prefix from three transit
// attachment points and returns its service address.
func goldenAnycast(topo *topology.Topology, f *fabric.Fabric, seed int64) ipv4.Addr {
	transits := topo.ASesByTier(topology.Transit)
	vias := []topology.ASN{transits[0], transits[len(transits)/2], transits[len(transits)-1]}
	ann := &bgp.Announcement{
		Prefix: ipv4.MustParsePrefix("203.0.113.0/24"),
		Origin: topology.ASN(len(topo.ASes)),
	}
	g := &fabric.AnycastGroup{Prefix: ann.Prefix, ServiceAddr: ipv4.MustParseAddr("203.0.113.1")}
	for i, via := range vias {
		name := string(rune('A' + i))
		ann.Sites = append(ann.Sites, bgp.AnnSite{Name: name, Neighbors: []bgp.AnnNeighbor{{ASN: via, Rel: topology.RelCustomer}}})
		g.Sites = append(g.Sites, fabric.AnycastSite{Name: name, Via: via, Router: topo.ASes[via].Routers[0]})
	}
	g.Routes = bgp.Compute(topo, ann, bgp.DefaultTieBreak(seed), f.Routing.Pref())
	f.AddAnycast(g)
	return g.ServiceAddr
}

// goldenInject sends n packets drawn from rng — plain, RR, tsprespec,
// TTL-limited and spoofed-source echo requests toward hosts, router
// interfaces and the anycast service — and folds each Result into h
// (nil: inject only).
func goldenInject(f *fabric.Fabric, topo *topology.Topology, svc ipv4.Addr, rng *rand.Rand, n int, h hash.Hash64) {
	tUS := int64(0)
	for i := 0; i < n; i++ {
		src := &topo.Hosts[rng.Intn(len(topo.Hosts))]
		var dst ipv4.Addr
		switch rng.Intn(8) {
		case 0:
			dst = svc
		case 1, 2:
			dst = topo.Ifaces[rng.Intn(len(topo.Ifaces))].Addr
		default:
			dst = topo.Hosts[rng.Intn(len(topo.Hosts))].Addr
		}
		from, ttl, rr := src.Addr, uint8(64), 0
		var ts []ipv4.Addr
		switch rng.Intn(6) {
		case 0: // plain ping
		case 1, 2:
			rr = ipv4.RRSlots
		case 3:
			ts = []ipv4.Addr{dst, topo.Ifaces[rng.Intn(len(topo.Ifaces))].Addr}
		case 4:
			ttl = uint8(1 + rng.Intn(12))
		case 5:
			from, rr = topo.Hosts[rng.Intn(len(topo.Hosts))].Addr, ipv4.RRSlots
		}
		pkt := ipv4.BuildEchoRequest(from, dst, uint16(i), uint16(i>>4), ttl, rr, ts)
		res := f.Inject(src.Router, pkt, tUS, uint64(rng.Intn(64)), uint64(2*i+1))
		tUS += 29_000 // 2400 packets span a whole 60 s flap period
		if h == nil {
			continue
		}
		put(h, uint64(len(res.Trace)))
		for _, r := range res.Trace {
			put(h, uint64(r))
		}
		put(h, uint64(len(res.Deliveries)))
		for _, d := range res.Deliveries {
			put(h, uint64(len(d.Pkt)))
			h.Write(d.Pkt)
			put(h, uint64(d.To))
			put(h, uint64(d.TimeUS))
			put(h, uint64(int64(d.Site)))
		}
		if res.ReachedDst {
			put(h, 1)
		} else {
			put(h, 0)
		}
	}
}

func put(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
