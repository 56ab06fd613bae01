package core_test

// Tests for the machine's reverse-distance estimate — the cursor's hop
// count from the source, read off the TTL of the RR replies a stage draws
// and carried across adoptions — and for the two things read off it: the
// direct RR probe a cursor out of range is not sent, and the start of the
// symmetry-stage traceroute. The differential prices the skipped probes by
// sending them; the resume cases clone at both new suspension shapes. The
// adoption cut at an interior atlas intersection has its differential here
// too.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

// skipStats is one row of the skip differential's table: direct probes
// skipped, how many of them — sent by the test — were answered and would
// have revealed a hop, and the completions of the engine as it is against
// the one that sends every direct probe.
type skipStats struct {
	pairs, skips, answered, revealed int
	complete, completeUnskipped      int
}

// skipDifferential measures pairs twice, each time on a fresh engine from
// newEngine. The first pass is the engine as it is, and every time it
// skips a direct probe the test sends that probe itself: same kind, source
// and target, a sequence number of the test's own, through the engine's
// pool. The second pass forgets the distance estimate before every step,
// so that engine sends every direct probe (and starts no traceroute from
// the estimate, which moves packets only).
func skipDifferential(t *testing.T, newEngine func() *core.Engine, pairs []srcDst) skipStats {
	st := skipStats{pairs: len(pairs)}
	bg := context.Background()
	seq := uint64(1) << 32 // clear of every measurement's own numbers

	eng := newEngine()
	skipped := observe(eng).Counter("engine_rr_direct_skipped_total")
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		for {
			before := skipped.Value()
			p := mm.Next()
			if n := skipped.Value() - before; n > 1 {
				t.Fatalf("%s→%s: %d direct probes skipped in one step", pr.src.Agent.Addr, pr.dst, n)
			} else if n == 1 {
				hop := mm.Cursor() // every slot of the plan dropped: the stage suspended on nothing
				if p != nil && isSpoofSweep(p) {
					hop = p.Reqs[0].Dst
				}
				seq++
				rr := eng.Pool.Do(bg, []probe.Request{{Kind: measure.KindRR, VP: pr.src.Agent, Dst: hop, Seq: seq}}).Replies[0].RR
				st.skips++
				st.answered += btoi(rr.Responded)
				st.revealed += btoi(rr.Responded && len(core.ExtractReverse(rr.Recorded, hop, eng.Alias)) > 0)
			}
			if p == nil {
				break
			}
			mm.Deliver(eng.ExecPending(mm.Context(), p))
		}
		st.complete += btoi(mm.Result().Status == core.StatusComplete)
	}

	eng = newEngine()
	skipped = observe(eng).Counter("engine_rr_direct_skipped_total")
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		for {
			mm.ForgetDistance()
			p := mm.Next()
			if p == nil {
				break
			}
			mm.Deliver(eng.ExecPending(mm.Context(), p))
		}
		st.completeUnskipped += btoi(mm.Result().Status == core.StatusComplete)
	}
	if n := skipped.Value(); n != 0 {
		t.Fatalf("the engine without an estimate skipped %d direct probes", n)
	}
	return st
}

// benchSlice builds the benchmark's world — 1000 ASes, 30 sites, seed 31 —
// and the 520-pair slice of it the differentials measure: 8 sources, each
// with the first 65 destinations of its stride-211 walk outside its AS.
func benchSlice() (*revtr.Deployment, []srcDst) {
	cfg := revtr.DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := revtr.Build(cfg)
	dests := d.OnePerPrefix()
	var pairs []srcDst
	for si := 0; si < 8; si++ {
		src := d.NewSource(d.PickSourceHost(si * 17))
		for k, n := 0, 0; n < 65; k++ {
			if dst := dests[(si*29+k*211)%len(dests)]; dst.AS != src.Agent.AS {
				n++
				pairs = append(pairs, srcDst{src, dst.Addr})
			}
		}
	}
	return d, pairs
}

// TestDirectSkipDifferential prices the skipped direct probe. Every time
// the machine opens an RR stage at the spoofed sweep the test sends the
// direct probe it did not and records whether it would have been answered
// and whether it would have revealed a hop — which the sweep that follows
// may reveal anyway. On clean plans at most 3 % of the skipped probes may
// have revealed one (checked in full runs only); on every corpus the
// engine must complete no fewer paths than one that sends every direct
// probe, less 0.5 %.
func TestDirectSkipDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %9s %9s | %9s %10s", "plan", "pairs", "skips", "answered", "revealed", "complete", "unskipped")
	var clean skipStats
	report := func(name string, isClean bool, st skipStats) {
		t.Logf("%-14s %6d %6d %9d %9d | %9d %10d", name, st.pairs, st.skips, st.answered, st.revealed, st.complete, st.completeUnskipped)
		if st.skips == 0 {
			t.Errorf("%s: no direct probe skipped: the plan exercises nothing", name)
		}
		if st.complete*1000 < st.completeUnskipped*995 {
			t.Errorf("%s: %d paths completed, %d with every direct probe sent: want no fewer, less 0.5 %%", name, st.complete, st.completeUnskipped)
		}
		if isClean {
			clean.skips += st.skips
			clean.revealed += st.revealed
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			for _, dst := range c.dsts {
				pairs = append(pairs, srcDst{src, dst})
			}
		}
		report(fmt.Sprintf("seed%d/clean", seed), true, skipDifferential(t, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			return eng
		}, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		report(fmt.Sprintf("seed%d/faulty", seed), false, skipDifferential(t, func() *core.Engine {
			eng, _ := c.engine(1, probe.RetryPolicy{Max: 2})
			return eng
		}, pairs))
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		report("bench/clean", true, skipDifferential(t, func() *core.Engine { return d.Engine(core.Revtr20Options()) }, pairs))
	}
	t.Logf("%-14s %6s %6d %9s %9d", "clean, total", "", clean.skips, "", clean.revealed)
	// The bound was set on the full corpus: the chaos seeds alone read
	// higher (21 of 461), the benchmark slice's 655 skips bring it down.
	if !testing.Short() && clean.revealed*100 > clean.skips*3 {
		t.Errorf("%d of the %d direct probes skipped on clean plans would have revealed a hop, want <= 3%%", clean.revealed, clean.skips)
	}
}

// TestResumeOnDistance: the estimate is machine state, so a machine cloned
// at either suspension it shapes — the first batch of a sweep no direct
// probe preceded, a traceroute started from the estimate — resumes to the
// straight-through result, and so does the original; on a clean plan and a
// lossy one.
func TestResumeOnDistance(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, lossy := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/lossy=%v", seed, lossy), func(t *testing.T) {
				c := newChaosEnv(t, seed, 40)
				if lossy {
					c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.1, ICMPFrac: 0.3, ICMPPass: 0.5})
				}
				o := core.Revtr20Options()
				o.UseCache = false // every run of a destination independent of the runs before it
				eng, _ := c.engineOpts(1, probe.RetryPolicy{Max: 1}, o)
				reg := observe(eng)
				counters := []*obs.Counter{
					reg.Counter("engine_rr_direct_skipped_total"),
					reg.Counter("engine_traceroute_distance_starts_total"),
				}
				var resumed [2]int
				for _, dst := range c.dsts {
					mm := eng.Begin(context.Background(), c.src, dst)
					var boundaries [2][]int
					n := 0
					for {
						before := [2]uint64{counters[0].Value(), counters[1].Value()}
						p := mm.Next()
						if p == nil {
							break
						}
						if counters[0].Value() != before[0] && isSpoofSweep(p) {
							boundaries[0] = append(boundaries[0], n)
						}
						if counters[1].Value() != before[1] && p.Kind == core.PendingTraceroute {
							boundaries[1] = append(boundaries[1], n)
						}
						mm.Deliver(eng.ExecPending(mm.Context(), p))
						n++
					}
					ref := mm.Result()
					for kind, ks := range boundaries {
						for _, k := range ks {
							mm := eng.Begin(context.Background(), c.src, dst)
							for i := 0; i < k; i++ {
								mm.Deliver(eng.ExecPending(mm.Context(), mm.Next()))
							}
							cl := mm.Clone()
							for _, m := range []*core.Machine{cl, mm} {
								if got, rest := driveMachine(eng, m); !reflect.DeepEqual(got, ref) || k+rest != n {
									t.Fatalf("dst %s: resumed at boundary %d/%d (kind %d) diverged (+%d pendings)\nref %+v\ngot %+v", dst, k, n, kind, rest, ref, got)
								}
							}
							resumed[kind]++
						}
					}
				}
				if resumed[0] == 0 || resumed[1] == 0 {
					t.Fatalf("%d clones behind a skipped direct probe, %d at a distance-started traceroute: the test exercises half of what it claims, or none", resumed[0], resumed[1])
				}
				t.Logf("%d clones behind a skipped direct probe, %d at a distance-started traceroute", resumed[0], resumed[1])
			})
		}
	}
}

// TestInteriorIntersectionDifferential prices the adoption cut: revealed
// hops are adopted up to the first one the atlas intersects. The same pairs
// are measured with the rule and without it (every revealed hop adopted,
// the atlas asked about the last one only), cache off so each pair stands
// alone. A path the rule changes must end complete, hold the other path's
// hops up to the cut, and go home from there along the atlas; on the
// benchmark's world the rule must complete paths the other engine does not.
func TestInteriorIntersectionDifferential(t *testing.T) {
	o := core.Revtr20Options()
	o.UseCache = false
	// run returns the paths the rule changed and, of them, those the engine
	// without it did not complete.
	run := func(cut, whole *core.Engine, pairs []srcDst) (changed, gained int) {
		whole.AdoptWhole()
		for _, pr := range pairs {
			got := cut.MeasureReverse(context.Background(), pr.src, pr.dst)
			old := whole.MeasureReverse(context.Background(), pr.src, pr.dst)
			if reflect.DeepEqual(got.Hops, old.Hops) {
				if got.Status != old.Status || got.Probes != old.Probes {
					t.Fatalf("%s→%s: same hops, different measurement:\n%s\n%s", pr.src.Agent.Addr, pr.dst, renderCoreResult(got), renderCoreResult(old))
				}
				continue
			}
			changed++
			gained += btoi(old.Status != core.StatusComplete)
			// The cut: the hop before the atlas suffix that closes the path.
			k := len(got.Hops) - 1
			for k > 0 && (got.Hops[k].Tech == core.TechSource || got.Hops[k].Tech == core.TechTrIntersect) {
				k--
			}
			if got.Status != core.StatusComplete || k+1 > len(old.Hops) || !reflect.DeepEqual(got.Hops[:k+1], old.Hops[:k+1]) ||
				got.Hops[k].Tech != core.TechRR && got.Hops[k].Tech != core.TechSpoofRR || got.Hops[k+1].Tech != core.TechTrIntersect {
				t.Fatalf("%s→%s: the rule changed the path other than by an atlas suffix behind a revealed hop (cut at %d):\n%s\n%s",
					pr.src.Agent.Addr, pr.dst, k, renderCoreResult(got), renderCoreResult(old))
			}
		}
		return changed, gained
	}
	for seed := int64(1); seed <= 3; seed++ {
		c := newChaosEnv(t, seed, 150)
		var pairs []srcDst
		for _, src := range moreSources(c, 4) {
			for _, dst := range c.dsts {
				pairs = append(pairs, srcDst{src, dst})
			}
		}
		cut, _ := c.engineOpts(1, probe.RetryPolicy{}, o)
		whole, _ := c.engineOpts(1, probe.RetryPolicy{}, o)
		changed, gained := run(cut, whole, pairs)
		if changed == 0 {
			t.Fatalf("seed %d: the rule changed no path: the corpus exercises nothing", seed)
		}
		t.Logf("seed%d: %d of %d paths cut at an interior intersection, %d of them not completed without the rule", seed, changed, len(pairs), gained)
	}
	if !testing.Short() {
		d, pairs := benchSlice()
		changed, gained := run(d.Engine(o), d.Engine(o), pairs)
		if gained == 0 {
			t.Fatalf("bench: the rule changed %d paths and completed none the other engine did not", changed)
		}
		t.Logf("bench: %d of %d paths cut at an interior intersection, %d of them not completed without the rule", changed, len(pairs), gained)
	}
}
