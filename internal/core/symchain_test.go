package core_test

// The chained traceroute start: a hop adopted by a symmetry assumption
// was read off a traceroute from the same source, so the traceroute to
// that hop starts one TTL below where it answered.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// symTracker follows one machine's hop events: lastSym is the hop the
// latest adoption took by a symmetry assumption (zero once any other hop
// is adopted after it) and readOff the target of the traceroute it was
// read off — the cursor when the hop event fires.
type symTracker struct {
	mm               *core.Machine
	lastSym, readOff ipv4.Addr
}

func (s *symTracker) sink(ev stream.Event) {
	if ev.Kind != stream.KindHop {
		return
	}
	s.lastSym, s.readOff = 0, 0
	if ev.Tech == core.TechSymmetry.String() {
		s.lastSym, s.readOff = ipv4.MustParseAddr(ev.Hop), s.mm.Cursor()
	}
}

func trackSym(mm *core.Machine) *symTracker {
	s := &symTracker{mm: mm}
	mm.SetSink(s.sink)
	return s
}

// symAlways is revtr 2.0 taking revtr 1.0's symmetry policy: an
// assumption wherever Record Route reveals nothing, so chains of them.
func symAlways() core.Options {
	o := core.Revtr20Options()
	o.Symmetry = core.SymAlways
	return o
}

// ttlOf is the TTL hop answered at in tr, 0 if it did not.
func ttlOf(tr measure.TracerouteResult, hop ipv4.Addr) int {
	for i := len(tr.Hops) - 1; i >= 0; i-- {
		if tr.Hops[i].Responded && tr.Hops[i].Addr == hop {
			return i + 1
		}
	}
	return 0
}

// TestSymmetryChainStart drives measurements that chain symmetry
// assumptions (symAlways) by hand and checks every traceroute Pending.
// One to a hop a symmetry assumption just adopted carries Start = that
// hop's TTL in the traceroute it was read off, less one — also when that
// traceroute came out of the engine cache: each destination is first
// measured up to its first symmetry adoption and abandoned, so the full
// measurement that follows reads that traceroute from the cache — and
// whatever the machine's reverse-distance estimate says: the chain wins.
// Any other traceroute starts one TTL past the estimate; without one, one
// TTL past the atlas's distance to the hop's AS (atlasDistance); without
// that, at the atlas median, or sweeps from TTL 1 for a source whose atlas
// has neither a median nor AS distances. The plan is clean, so four in
// five chained traceroutes must get by on three packets.
func TestSymmetryChainStart(t *testing.T) {
	swept := 0 // first traceroutes of a source without a median, to a hop without an estimate
	for seed := int64(1); seed <= 3; seed++ {
		for _, atlasMedian := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed%d/median=%v", seed, atlasMedian), func(t *testing.T) {
				c := newChaosEnv(t, seed, 150)
				src := c.src
				if !atlasMedian {
					noMedian := *src.Atlas // shares the (read-only) entries and indexes
					noMedian.MedianHops, noMedian.ASHops = 0, nil
					src.Atlas = &noMedian
				}
				eng, _ := c.engineOpts(1, probe.RetryPolicy{}, symAlways())
				held := map[ipv4.Addr]measure.TracerouteResult{} // by target: what the engine cache holds
				chained, cheap, fromCache, byDist, byAS := 0, 0, 0, 0, 0
				for _, dst := range c.dsts {
					for _, abandon := range []bool{true, false} {
						mm := eng.Begin(context.Background(), src, dst)
						s := trackSym(mm)
						measured := map[ipv4.Addr]bool{} // traceroute targets this machine probed itself
						for p := mm.Next(); p != nil && !(abandon && !s.lastSym.IsZero()); p = mm.Next() {
							d := eng.ExecPending(mm.Context(), p)
							if p.Kind == core.PendingTraceroute {
								switch {
								case p.Dst == s.lastSym:
									want := ttlOf(held[s.readOff], p.Dst) - 1
									if want < 0 || p.Start != want {
										t.Fatalf("%s: traceroute to %s, adopted off the one to %s at TTL %d, starts at %d", dst, p.Dst, s.readOff, want+1, p.Start)
									}
									chained++
									if d.TrSent <= 3 {
										cheap++
									}
									if !measured[s.readOff] {
										fromCache++
									}
								case mm.RevDist() >= 0:
									if p.Start != mm.RevDist()+1 {
										t.Fatalf("%s: unchained traceroute to %s, %d hops out, starts at %d", dst, p.Dst, mm.RevDist(), p.Start)
									}
									byDist++
								case atlasDistance(c, src.Atlas, p.Dst) >= 0:
									if d := atlasDistance(c, src.Atlas, p.Dst); p.Start != d+1 {
										t.Fatalf("%s: unchained traceroute to %s, %d hops out by the atlas, starts at %d", dst, p.Dst, d, p.Start)
									}
									byAS++
								case atlasMedian && p.Start != src.Atlas.MedianHops:
									t.Fatalf("%s: unchained traceroute to %s starts at %d, atlas median %d", dst, p.Dst, p.Start, src.Atlas.MedianHops)
								case !atlasMedian:
									if p.Start > 1 || !d.Tr.Swept {
										t.Fatalf("%s: unchained traceroute to %s without an atlas median: start %d, swept %v", dst, p.Dst, p.Start, d.Tr.Swept)
									}
									swept++
								}
								held[p.Dst], measured[p.Dst] = d.Tr, true
							}
							mm.Deliver(d)
						}
					}
				}
				if chained < 10 || fromCache == 0 {
					t.Fatalf("%d chained traceroutes, %d off a cached one: corpus too thin", chained, fromCache)
				}
				if byDist == 0 {
					t.Fatal("no traceroute started from the distance estimate")
				}
				if atlasMedian && byAS == 0 {
					t.Fatal("no traceroute started from the atlas's AS distances")
				}
				if cheap*5 < chained*4 {
					t.Fatalf("%d of %d chained traceroutes sent at most 3 packets, want 80 %%", cheap, chained)
				}
				t.Logf("%d chained traceroutes (%d read off a cached one), %d sent at most 3 packets; %d started from the estimate, %d from the atlas", chained, fromCache, cheap, byDist, byAS)
			})
		}
	}
	if swept == 0 {
		t.Error("no first traceroute swept")
	}
}

// atlasDistance is how far at puts hop, where no reply said: one past
// where its traceroutes crossed hop's AS, else four past the nearest AS
// next to it they crossed; -1 where neither is known.
func atlasDistance(c *chaosEnv, at *atlas.Atlas, hop ipv4.Addr) int {
	asn, ok := ip2as.Origin{Topo: c.env.Topo}.ASOf(hop)
	if !ok {
		return -1
	}
	if d, ok := at.ASHops[asn]; ok {
		return d + 1
	}
	near := -1
	for _, nb := range c.env.Topo.ASes[asn].Neighbors {
		if d, ok := at.ASHops[nb.ASN]; ok && (near < 0 || d < near) {
			near = d
		}
	}
	if near < 0 {
		return -1
	}
	return near + 4
}

// TestResumeChainedTraceroute: the chained start is machine state, so a
// machine cloned while it waits on a chained traceroute resumes to the
// straight-through result, and so does the original — on a clean plan and
// a lossy one.
func TestResumeChainedTraceroute(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, lossy := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/lossy=%v", seed, lossy), func(t *testing.T) {
				c := newChaosEnv(t, seed, 40)
				if lossy {
					c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.1, ICMPFrac: 0.3, ICMPPass: 0.5})
				}
				o := symAlways()
				o.UseCache = false // every run of a destination independent of the runs before it
				eng, _ := c.engineOpts(1, probe.RetryPolicy{Max: 1}, o)
				resumed := 0
				for _, dst := range c.dsts {
					mm := eng.Begin(context.Background(), c.src, dst)
					s := trackSym(mm)
					var boundaries []int
					n := 0
					for p := mm.Next(); p != nil; p = mm.Next() {
						if p.Kind == core.PendingTraceroute && p.Dst == s.lastSym {
							boundaries = append(boundaries, n)
						}
						mm.Deliver(eng.ExecPending(mm.Context(), p))
						n++
					}
					ref := mm.Result()
					for _, k := range boundaries {
						mm := eng.Begin(context.Background(), c.src, dst)
						for i := 0; i < k; i++ {
							mm.Deliver(eng.ExecPending(mm.Context(), mm.Next()))
						}
						cl := mm.Clone()
						for _, m := range []*core.Machine{cl, mm} {
							if got, rest := driveMachine(eng, m); !reflect.DeepEqual(got, ref) || k+rest != n {
								t.Fatalf("dst %s: resumed at chained traceroute %d/%d diverged (+%d pendings)\nref %+v\ngot %+v", dst, k, n, rest, ref, got)
							}
						}
						resumed++
					}
				}
				if resumed == 0 {
					t.Fatal("no measurement waited on a chained traceroute")
				}
				t.Logf("%d clones at chained traceroutes", resumed)
			})
		}
	}
}
