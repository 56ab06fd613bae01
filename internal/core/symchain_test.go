package core_test

// The chain step: a hop adopted by a symmetry assumption was read off a
// traceroute from the same source, so the symmetry stage at that hop
// continues that traceroute below where the hop answered.

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
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// symTracker follows one machine's hop events: lastSym is the hop the
// latest adoption took by a symmetry assumption (zero once any other hop
// is adopted after it) and readOff the cursor whose symmetry stage read it
// off a traceroute — the cursor when the hop event fires.
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
// One at a hop a symmetry assumption just adopted is a chain step: it
// continues the traceroute that hop was read off — toward its target, Prev
// its result — below Start = the TTL the hop answered it at.
// That holds also when that traceroute came out of the engine cache (each
// destination is first measured up to its first symmetry adoption and
// abandoned, so the full measurement that follows reads it from the
// cache): the step then goes toward the hop itself. It
// holds whatever the machine's reverse-distance estimate says: the chain
// wins. A step whose walk that traceroute already holds sends nothing; one
// whose walk it does not hold sends. Any other traceroute starts at the
// lowest TTL at which the engine's earlier traceroutes from the source to a
// hop of the hop's AS met a responsive hop of it; where none did, one TTL
// past the estimate; without one, one TTL past the atlas's distance to the
// hop's AS (atlasDistance); without that, at the atlas median, or sweeps
// from TTL 1 for a source whose atlas has neither a median nor AS
// distances. The plan is clean, so four in five chain steps must get by on
// one packet.
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
				held := map[ipv4.Addr]measure.TracerouteResult{} // by cursor: what the engine cache holds
				chained, cheap, inHand, fromCache, byMemo, byDist, byAS := 0, 0, 0, 0, 0, 0, 0
				mapper := ip2as.Origin{Topo: c.env.Topo}
				met := map[topology.ASN]int{} // by the cursor's AS: the lowest TTL a traceroute to it met that AS at
				for _, dst := range c.dsts {
					for _, abandon := range []bool{true, false} {
						mm := eng.Begin(context.Background(), src, dst)
						s := trackSym(mm)
						measured := map[ipv4.Addr]*core.Pending{} // by cursor: the traceroutes this machine sent
						for p := mm.Next(); p != nil && !(abandon && !s.lastSym.IsZero()); p = mm.Next() {
							d := eng.ExecPending(mm.Context(), p)
							if p.Kind == core.PendingTraceroute {
								switch {
								case mm.Cursor() == s.lastSym:
									read := held[s.readOff]
									want := ttlOf(read, s.lastSym)
									if p.Prev == nil || !reflect.DeepEqual(*p.Prev, read) || p.Start != want {
										t.Fatalf("%s: chain step at %s, adopted off the traceroute at %s at TTL %d: start %d, continues %v", dst, s.lastSym, s.readOff, want, p.Start, p.Prev != nil)
									}
									if r := measured[s.readOff]; r != nil && p.Dst != r.Dst {
										t.Fatalf("%s: chain step toward %s continues the traceroute toward %s", dst, p.Dst, r.Dst)
									} else if r == nil && p.Dst != s.lastSym {
										t.Fatalf("%s: chain step off a cached traceroute goes toward %s, not the hop %s", dst, p.Dst, s.lastSym)
									}
									if held := holdsWalk(read, want); held != (d.TrSent == 0) {
										t.Fatalf("%s: chain step below TTL %d sent %d packets; the traceroute it continues holds the walk: %v", dst, want, d.TrSent, held)
									}
									chained++
									if d.TrSent <= 1 {
										cheap++
									}
									if d.TrSent == 0 {
										inHand++
									}
									if measured[s.readOff] == nil {
										fromCache++
									}
								case metAt(met, mapper, p.Dst) > 0:
									if ttl := metAt(met, mapper, p.Dst); p.Start != ttl {
										t.Fatalf("%s: unchained traceroute to %s, whose AS the source met at TTL %d, starts at %d", dst, p.Dst, ttl, p.Start)
									}
									byMemo++
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
								held[mm.Cursor()], measured[mm.Cursor()] = d.Tr, p
								cursorAS, _ := mapper.ASOf(mm.Cursor())
								for i, h := range d.Tr.Hops {
									if asn, ok := mapper.ASOf(h.Addr); ok && asn == cursorAS && h.Responded && (met[asn] == 0 || i+1 < met[asn]) {
										met[asn] = i + 1
									}
								}
							}
							mm.Deliver(d)
						}
					}
				}
				if chained < 10 || fromCache == 0 || inHand == 0 {
					t.Fatalf("%d chain steps, %d off a cached traceroute, %d in hand: corpus too thin", chained, fromCache, inHand)
				}
				if byDist == 0 || byMemo == 0 {
					t.Fatalf("%d traceroutes started from the distance estimate, %d from the memo", byDist, byMemo)
				}
				if atlasMedian && byAS == 0 {
					t.Fatal("no traceroute started from the atlas's AS distances")
				}
				if cheap*5 < chained*4 {
					t.Fatalf("%d of %d chain steps sent at most one packet, want 80 %%", cheap, chained)
				}
				t.Logf("%d chain steps (%d off a cached traceroute), %d in hand, %d sent at most one packet; %d started from the memo, %d from the estimate, %d from the atlas", chained, fromCache, inHand, cheap, byMemo, byDist, byAS)
			})
		}
	}
	if swept == 0 {
		t.Error("no first traceroute swept")
	}
}

// metAt is the lowest TTL met holds for hop's AS, 0 if none.
func metAt(met map[topology.ASN]int, m ip2as.Mapper, hop ipv4.Addr) int {
	asn, ok := m.ASOf(hop)
	if !ok {
		return 0
	}
	return met[asn]
}

// holdsWalk reports whether tr already holds the walk down from its hop at
// TTL top: a responsive public hop below it, with no TTL tr did not probe
// and no four silent TTLs in a row between the two.
func holdsWalk(tr measure.TracerouteResult, top int) bool {
	silent := 0
	for ttl := top - 1; tr.ProbedAt(ttl) && silent < 4; ttl-- {
		h := tr.Hops[ttl-1]
		if h.Responded && !h.Addr.IsPrivate() {
			return true
		}
		if !h.Responded {
			silent++
		}
	}
	return false
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

// TestResumeChainedTraceroute: the traceroute a chain step continues is
// machine state, so a machine cloned while it waits on a chain step
// resumes to the straight-through result, and so does the original — on a
// clean plan and a lossy one.
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
					var boundaries []int
					n := 0
					for p := mm.Next(); p != nil; p = mm.Next() {
						if p.Kind == core.PendingTraceroute && p.Prev != nil {
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
								t.Fatalf("dst %s: resumed at chain step %d/%d diverged (+%d pendings)\nref %+v\ngot %+v", dst, k, n, rest, ref, got)
							}
						}
						resumed++
					}
				}
				if resumed == 0 {
					t.Fatal("no measurement waited on a chain step")
				}
				t.Logf("%d clones at chain steps", resumed)
			})
		}
	}
}

// chainStats is one row of the chain-step differential: chain steps, and
// how many of them found the penultimate hop, and the intra/inter class
// of the last link, that the traceroute to the hop itself finds.
type chainStats struct{ steps, samePenult, sameClass int }

// lastLink is classifyTraceroute's reading of tr at a cursor that is not
// the destination: the penultimate hop and the last link's class.
func lastLink(tr measure.TracerouteResult, cur ipv4.Addr, m ip2as.Mapper) (ipv4.Addr, string) {
	last := len(tr.Hops) - 1
	if tr.ReachedDst {
		last--
	}
	for i := last; i >= 0; i-- {
		if h := tr.Hops[i]; h.Responded && !h.Addr.IsPrivate() {
			if h.Addr == cur {
				break
			}
			if ip2as.SameAS(m, h.Addr, cur) {
				return h.Addr, "intra"
			}
			return h.Addr, "inter"
		}
	}
	if tr.ReachedDst && len(tr.Hops) <= 2 {
		return 0, "adjacent"
	}
	return 0, "none"
}

// TestChainStepDifferential prices the chain step. At each one the test
// also sends what the symmetry stage sent there before it: a traceroute to
// the adopted hop itself, from one TTL below where the hop answered, salted
// as the stage's would have been. On clean plans the step must find that
// traceroute's penultimate hop in 97 % of the steps and its last link's
// intra/inter class in 99 %; the faulty plans are reported.
func TestChainStepDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %11s %10s", "plan", "pairs", "steps", "same penult", "same class")
	var clean chainStats
	run := func(name string, isClean bool, eng *core.Engine, pairs []srcDst) {
		var st chainStats
		bg := context.Background()
		for _, pr := range pairs {
			mm := eng.Begin(bg, pr.src, pr.dst)
			for p := mm.Next(); p != nil; p = mm.Next() {
				d := eng.ExecPending(mm.Context(), p)
				if p.Prev != nil && len(d.Tr.Hops) > 0 {
					cur := mm.Cursor()
					hop, _ := eng.Pool.Traceroute(bg, p.Agent, cur, p.Salt, p.Start-1, nil, nil)
					gotPenult, gotClass := lastLink(d.Tr, cur, eng.Mapper)
					wantPenult, wantClass := lastLink(hop, cur, eng.Mapper)
					st.steps++
					st.samePenult += btoi(gotPenult == wantPenult)
					st.sameClass += btoi(gotClass == wantClass)
				}
				mm.Deliver(d)
			}
		}
		t.Logf("%-14s %6d %6d %11d %10d", name, len(pairs), st.steps, st.samePenult, st.sameClass)
		if isClean {
			clean.steps += st.steps
			clean.samePenult += st.samePenult
			clean.sameClass += st.sameClass
		}
	}
	// Five worlds, so that a -short run, without the benchmark's, holds the
	// 100 clean steps the floor below asks for.
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			for _, dst := range c.dsts {
				pairs = append(pairs, srcDst{src, dst})
			}
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		run(fmt.Sprintf("seed%d/clean", seed), true, eng, pairs)

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		run(fmt.Sprintf("seed%d/faulty", seed), false, eng, pairs)
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		run("bench/clean", true, d.Engine(core.Revtr20Options()), pairs)
	}
	t.Logf("%-14s %6s %6d %11d %10d", "clean, total", "", clean.steps, clean.samePenult, clean.sameClass)
	if clean.steps < 100 {
		t.Fatalf("%d chain steps on clean plans: corpus too thin", clean.steps)
	}
	if clean.samePenult*100 < clean.steps*97 || clean.sameClass*100 < clean.steps*99 {
		t.Errorf("of %d chain steps on clean plans %d found the same penultimate hop (want 97 %%) and %d the same class (want 99 %%)",
			clean.steps, clean.samePenult, clean.sameClass)
	}
}
