package core_test

// Tests for the two rules that end an RR stage early: a spoofed sweep
// stops at its first silent round when the direct probe was silent too,
// and an RR stage that was measured and revealed nothing is cached as an
// empty entry. The differential prices the first rule by sending what it
// did not; the cache test pins what the second stores and, above all,
// what it must not.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

type srcDst struct {
	src core.Source
	dst ipv4.Addr
}

// observe attaches a fresh registry to eng and returns it.
func observe(eng *core.Engine) *obs.Registry {
	reg := obs.New()
	eng.SetMetrics(core.NewMetrics(reg))
	return reg
}

// isDirectRR reports whether p is the direct Record Route probe that
// opens an RR stage.
func isDirectRR(p *core.Pending) bool {
	return p.Kind == core.PendingProbes && !p.Spoofed && len(p.Reqs) == 1 && p.Reqs[0].Kind == measure.KindRR
}

// replayRemainder sends what a sweep that ended at round did not: the
// rest of the ingress plan up to the MaxSpoofVPs budget, in rounds, with
// the requests the engine would have built, salt included. It reports
// whether any reply came back at all and whether any would have revealed a
// reverse hop.
func replayRemainder(eng *core.Engine, round []probe.Request) (answered, revealed bool) {
	src, cur, salt := round[0].Src, round[0].Dst, round[0].Seq
	tried := map[ipv4.Addr]bool{src: true}
	for _, r := range round {
		tried[r.VP.Addr] = true
	}
	pfx, _ := eng.F.Topo.BGPPrefixOf(cur)
	var rest []probe.Request
	for _, si := range eng.Ingress.PlanFor(pfx, eng.Opts.VPSelection).Order {
		site := eng.Sites[si]
		if tried[site.Addr] || len(round)+len(rest) >= eng.Opts.MaxSpoofVPs {
			continue
		}
		rest = append(rest, probe.Request{Kind: measure.KindSpoofedRR, VP: site, Src: src, Dst: cur, Seq: salt})
	}
	for len(rest) > 0 {
		n := min(core.SpoofBatchSize, len(rest))
		a, r := sendRound(eng, rest[:n])
		answered, revealed = answered || a, revealed || r
		rest = rest[n:]
	}
	return answered, revealed
}

// sendRound sends reqs as the engine sends a round: the lead, and the
// hedges only if the lead revealed nothing. It reports whether any reply
// came back and whether any revealed a reverse hop.
func sendRound(eng *core.Engine, reqs []probe.Request) (answered, revealed bool) {
	for _, part := range [][]probe.Request{reqs[:1], reqs[1:]} {
		if revealed || len(part) == 0 {
			break
		}
		for _, rep := range eng.Pool.Do(context.Background(), part).Replies {
			if rep.RR.Responded {
				answered = true
				revealed = revealed || len(core.ExtractReverse(rep.RR.Recorded, part[0].Dst, eng.Alias)) > 0
			}
		}
	}
	return answered, revealed
}

// sweepStats is one row of the differential's table.
type sweepStats struct {
	pairs, ended, answered, revealed int
}

// sweepsEnded measures src→dst on eng and calls ended with each spoofed
// round whose delivery made the silent rule end its sweep — the lead's
// requests and those of the hedges held or sent behind it; silent is eng's
// engine_spoof_sweeps_silent_total.
func sweepsEnded(eng *core.Engine, silent *obs.Counter, src core.Source, dst ipv4.Addr, ended func(round []probe.Request)) {
	mm := eng.Begin(context.Background(), src, dst)
	var round []probe.Request
	for p := mm.Next(); p != nil; p = mm.Next() {
		if isSpoofSweep(p) && !p.Hedges {
			round = append(slices.Clone(p.Reqs), mm.Held()...)
		}
		d := eng.ExecPending(mm.Context(), p)
		before := silent.Value()
		mm.Deliver(d)
		if silent.Value() != before {
			ended(round)
		}
	}
}

// silentDifferential measures pairs on eng and, every time a sweep ends
// on the silent rule, replays the remainder of its plan.
func silentDifferential(eng *core.Engine, pairs []srcDst) sweepStats {
	silent := observe(eng).Counter("engine_spoof_sweeps_silent_total")
	st := sweepStats{pairs: len(pairs)}
	for _, pr := range pairs {
		sweepsEnded(eng, silent, pr.src, pr.dst, func(round []probe.Request) {
			st.ended++
			answered, revealed := replayRemainder(eng, round)
			if answered {
				st.answered++
			}
			if revealed {
				st.revealed++
			}
		})
	}
	return st
}

// TestSilentSweepDifferential prices the silent-round exit. Every time a
// sweep ends on the rule the test sends the remainder of the plan itself,
// round by round, and records whether any reply would have come back and
// whether any would have revealed a hop: the hops the rule costs, against
// the 10 s rounds it saves. Clean plans must lose a hop in at most 1 % of
// the sweeps the rule ends; the faulty plans (where a silent round may be
// loss, not an unresponsive hop) are reported.
func TestSilentSweepDifferential(t *testing.T) {
	t.Logf("%-14s %6s %6s %10s %10s", "plan", "pairs", "ended", "answered", "revealed")
	var clean sweepStats
	report := func(name string, isClean bool, st sweepStats) {
		t.Logf("%-14s %6d %6d %10d %10d", name, st.pairs, st.ended, st.answered, st.revealed)
		if st.ended == 0 {
			t.Errorf("%s: no sweep ended on the silent rule: the plan exercises nothing", name)
		}
		if isClean {
			clean.pairs += st.pairs
			clean.ended += st.ended
			clean.answered += st.answered
			clean.revealed += st.revealed
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 150)
		var pairs []srcDst
		for _, dst := range c.dsts {
			pairs = append(pairs, srcDst{c.src, dst})
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		report(fmt.Sprintf("seed%d/clean", seed), true, silentDifferential(eng, pairs))

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		report(fmt.Sprintf("seed%d/faulty", seed), false, silentDifferential(eng, pairs))
	}
	if !testing.Short() {
		// The benchmark's world: 1000 ASes, 30 sites, seed 31.
		cfg := revtr.DefaultConfig(1000)
		cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
		d := revtr.Build(cfg)
		dests := d.OnePerPrefix()
		var pairs []srcDst
		for si := 0; si < 4; si++ {
			src := d.NewSource(d.PickSourceHost(si * 17))
			for k, n := 0, 0; n < 130; k++ {
				dst := dests[(si*29+k*211)%len(dests)]
				if dst.AS == src.Agent.AS {
					continue
				}
				n++
				pairs = append(pairs, srcDst{src, dst.Addr})
			}
		}
		report("bench/clean", true, silentDifferential(d.Engine(core.Revtr20Options()), pairs))
	}
	t.Logf("%-14s %6d %6d %10d %10d", "clean, total", clean.pairs, clean.ended, clean.answered, clean.revealed)
	if clean.revealed*100 > clean.ended {
		t.Errorf("the silent rule cost a hop in %d of the %d sweeps it ended on clean plans, want <= 1%%",
			clean.revealed, clean.ended)
	}
}

// driveSeeing runs one measurement by hand, showing see each pending
// after it was executed and before its delivery reaches the machine.
func driveSeeing(ctx context.Context, eng *core.Engine, src core.Source, dst ipv4.Addr, see func(*core.Pending, core.Delivery)) *core.Result {
	mm := eng.Begin(ctx, src, dst)
	for p := mm.Next(); p != nil; p = mm.Next() {
		d := eng.ExecPending(mm.Context(), p)
		see(p, d)
		mm.Deliver(d)
	}
	return mm.Result()
}

// stuckStage is an RR stage the silent rule ended: the hop, and the lead
// vantage point of the round it ended on.
type stuckStage struct {
	dst, hop, vp ipv4.Addr
}

// findStuckStages measures dsts on a fresh engine over the fault-free
// fabric, its pool retrying as pol says, and returns the stages the silent
// rule ended — stages that leave an empty cache entry behind when nothing
// interferes. With no retry a direct probe that drew silence closes the
// stage with no round behind it, so a test that needs that probe sent
// retries once.
func findStuckStages(c *chaosEnv, pol probe.RetryPolicy) []stuckStage {
	eng, _ := c.engine(1, pol)
	silent := observe(eng).Counter("engine_spoof_sweeps_silent_total")
	var out []stuckStage
	for _, dst := range c.dsts {
		sweepsEnded(eng, silent, c.src, dst, func(round []probe.Request) {
			out = append(out, stuckStage{dst, round[0].Dst, round[0].VP.Addr})
		})
	}
	return out
}

// TestNegativeRRCache: an RR stage that was measured and revealed nothing
// is cached, so a second measurement through the same stuck hop sends no
// Record Route packet and finds what the first found; the entry lives for
// CacheTTLUS; and a stage that a blackout or a cancellation kept from
// being measured in full leaves no entry behind.
func TestNegativeRRCache(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	stuck := findStuckStages(c, probe.RetryPolicy{Max: 1})
	if len(stuck) == 0 {
		t.Fatal("no sweep ends on the silent rule: the test exercises nothing")
	}
	bg := context.Background()
	clock := c.env.Pool.Clock()

	// remeasured measures s.dst and requires the RR stage at s.hop to be
	// probed, not served from an empty entry.
	remeasured := func(t *testing.T, eng *core.Engine, negHits *obs.Counter, s stuckStage) {
		t.Helper()
		probed, before := false, negHits.Value()
		driveSeeing(bg, eng, c.src, s.dst, func(p *core.Pending, _ core.Delivery) {
			probed = probed || isDirectRR(p) && p.Reqs[0].Dst == s.hop
		})
		if !probed || negHits.Value() != before {
			t.Errorf("hop %s: direct RR sent = %v, negative hits +%d; want the stage measured, not served from cache",
				s.hop, probed, negHits.Value()-before)
		}
	}

	t.Run("hit and expiry", func(t *testing.T) {
		defer clock.Set(clock.Now())
		eng, _ := c.engine(1, probe.RetryPolicy{Max: 1})
		reg := observe(eng)
		negHits := reg.Counter("engine_cache_rr_negative_hits_total")
		served := 0
		for _, dst := range c.dsts {
			first := eng.MeasureReverse(bg, c.src, dst)
			before := negHits.Value()
			again := eng.MeasureReverse(bg, c.src, dst)
			if again.Probes != (measure.Counters{}) || again.DurationUS != 0 {
				t.Errorf("dst %s: second measurement sent %+v over %d virtual us, want everything from cache",
					dst, again.Probes, again.DurationUS)
			}
			if again.Status != first.Status || again.SymAssumed != first.SymAssumed || !reflect.DeepEqual(again.Hops, first.Hops) {
				t.Errorf("dst %s: second measurement differs:\n  first  %s\n  second %s",
					dst, renderCoreResult(first), renderCoreResult(again))
			}
			if negHits.Value() > before {
				served++
			}
		}
		if served == 0 {
			t.Fatal("no second measurement was served by an empty entry")
		}
		if hits := reg.Counter("engine_cache_rr_hits_total").Value(); hits < negHits.Value() {
			t.Errorf("engine_cache_rr_hits_total = %d < %d negative hits: an empty entry is an RR hit too", hits, negHits.Value())
		}
		t.Logf("%d of %d second measurements crossed a hop cached as revealing nothing (%d such hits)",
			served, len(c.dsts), negHits.Value())

		clock.Advance(core.CacheTTLUS + 1)
		remeasured(t, eng, negHits, stuck[0])
	})

	t.Run("blacked-out source", func(t *testing.T) {
		c.env.Fabric.SetFaults((&faults.Plan{}).AddBlackout(c.src.Agent.Addr, 0, 1<<60))
		defer c.env.Fabric.SetFaults(nil)
		eng, _ := c.engine(1, probe.RetryPolicy{})
		reg := observe(eng)
		for _, dst := range c.dsts {
			eng.MeasureReverse(bg, c.src, dst)
		}
		if n := reg.Gauge("engine_cache_entries").Value(); n != 0 {
			t.Fatalf("%d cache entries written from a blacked-out source", n)
		}
	})

	t.Run("dead vantage point", func(t *testing.T) {
		defer c.env.Fabric.SetFaults(nil)
		for _, s := range stuck {
			c.env.Fabric.SetFaults((&faults.Plan{}).AddBlackout(s.vp, 0, 1<<60))
			eng, _ := c.engine(1, probe.RetryPolicy{Max: 1})
			negHits := observe(eng).Counter("engine_cache_rr_negative_hits_total")
			sawDead := false
			driveSeeing(bg, eng, c.src, s.dst, func(p *core.Pending, d core.Delivery) {
				if p.Spoofed && p.Reqs[0].Dst == s.hop {
					for _, rep := range d.Batch.Replies {
						sawDead = sawDead || rep.VPDead
					}
				}
			})
			if !sawDead {
				continue // the vantage point died at an earlier hop and was skipped here
			}
			remeasured(t, eng, negHits, s)
			return
		}
		t.Fatal("no stuck hop's sweep is the first to meet its dead vantage point")
	})

	t.Run("cancelled stage", func(t *testing.T) {
		s := stuck[0]
		eng, _ := c.engine(1, probe.RetryPolicy{Max: 1})
		negHits := observe(eng).Counter("engine_cache_rr_negative_hits_total")
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		res := driveSeeing(ctx, eng, c.src, s.dst, func(p *core.Pending, _ core.Delivery) {
			if p.Spoofed && p.Reqs[0].Dst == s.hop {
				cancel() // the lead ran in full; the stage closes under a dead context
			}
		})
		if !res.Cancelled {
			t.Fatalf("measurement cancelled at hop %s ended %v, not cancelled", s.hop, res.Status)
		}
		remeasured(t, eng, negHits, s)
	})
}

// TestResumeSilentSweep: Clone/resume at the suspension the silent rule
// acts on — a spoofed round's lead or hedges in flight behind a direct
// probe that drew no reply. The clone carries what the rule reads (that the direct probe was
// silent), so clone and original both end the sweep where the
// straight-through run does.
func TestResumeSilentSweep(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	o := core.Revtr20Options()
	o.UseCache = false // every run of a destination independent of the runs before it
	eng, _ := c.engineOpts(1, probe.RetryPolicy{Max: 1}, o)
	silent := observe(eng).Counter("engine_spoof_sweeps_silent_total")
	points := 0
	for _, dst := range c.dsts {
		ref, n := driveMachine(eng, eng.Begin(context.Background(), c.src, dst))
		for k := 1; k < n; k++ {
			mm := eng.Begin(context.Background(), c.src, dst)
			directSilent := false
			for i := 0; i < k; i++ {
				p := mm.Next()
				d := eng.ExecPending(mm.Context(), p)
				directSilent = isDirectRR(p) && !d.Batch.Replies[0].RR.Responded
				mm.Deliver(d)
			}
			if p := mm.Next(); !directSilent || !p.Spoofed {
				continue
			}
			points++
			before := silent.Value()
			for _, m := range []*core.Machine{mm.Clone(), mm} {
				if got, rest := driveMachine(eng, m); !reflect.DeepEqual(got, ref) || k+rest != n {
					t.Fatalf("dst %s: resumed at boundary %d/%d (+%d pendings) diverged\nref %+v\ngot %+v", dst, k, n, rest, ref, got)
				}
			}
			if silent.Value() < before+2 {
				t.Fatalf("dst %s boundary %d: the resumed sweeps did not both end on the silent rule", dst, k)
			}
		}
	}
	if points == 0 {
		t.Fatal("no spoofed batch suspended behind a silent direct probe: the test exercises nothing")
	}
	t.Logf("%d suspension points behind a silent direct probe resumed bit-identically", points)
}
