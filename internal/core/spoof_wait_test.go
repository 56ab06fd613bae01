package core_test

// Tests for what a spoofed batch costs in virtual time: its slowest round
// trip when every request drew a reply, the timeout when one is missing.
// The unit cases pin the rule on fabricated deliveries; the ledger keeps
// the books of an engine that waits out every batch beside hand-driven
// measurements and requires that only the wait differs from them.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// shortOfReply reports whether the delivered spoofed batch is missing the
// reply to one of its requests, read per the request's kind.
func shortOfReply(p *core.Pending, b probe.Batch) bool {
	for i, rep := range b.Replies {
		switch p.Reqs[i].Kind {
		case measure.KindSpoofedRR:
			if !rep.RR.Responded {
				return true
			}
		case measure.KindSpoofedTS:
			if !rep.TS.Responded {
				return true
			}
		}
	}
	return false
}

// waitLedger is the account of hand-driven measurements kept from their
// deliveries alone: the packets, the spoofed batches by class, the virtual
// time had every spoofed batch waited out the timeout, and what the
// complete ones save by ending at their last reply.
type waitLedger struct {
	timeoutUS       int64
	probes          measure.Counters
	complete, short int
	waitOutUS       int64 // every spoofed batch charged timeoutUS
	savedUS         int64 // sum of timeoutUS - MaxRTTUS over complete batches
}

// see books one executed pending (driveSeeing's callback).
func (l *waitLedger) see(p *core.Pending, d core.Delivery) {
	if p.Kind == core.PendingTraceroute {
		l.probes.Traceroute += uint64(d.TrSent)
		l.waitOutUS += d.Tr.RTTUS
		return
	}
	l.probes = l.probes.Add(d.Batch.Sent)
	if !p.Spoofed {
		l.waitOutUS += d.Batch.MaxRTTUS
		return
	}
	l.waitOutUS += l.timeoutUS
	if shortOfReply(p, d.Batch) || d.Batch.MaxRTTUS >= l.timeoutUS {
		l.short++
		return
	}
	l.complete++
	l.savedUS += l.timeoutUS - d.Batch.MaxRTTUS
}

// chargedUS is the virtual time the measurements must report.
func (l *waitLedger) chargedUS() int64 { return l.waitOutUS - l.savedUS }

// spoofWaitUS is the spoofed batches' part of it: a timeout per batch short
// of a reply and the slowest round trip of every complete one.
func (l *waitLedger) spoofWaitUS() int64 {
	return int64(l.short+l.complete)*l.timeoutUS - l.savedUS
}

func (l *waitLedger) add(o waitLedger) {
	l.probes = l.probes.Add(o.probes)
	l.complete += o.complete
	l.short += o.short
	l.waitOutUS += o.waitOutUS
	l.savedUS += o.savedUS
}

// TestSpoofWait pins the rule on one spoofed batch. A sweep behind a
// silent direct probe is replayed on fresh engines with a fabricated
// delivery in place of its first batch; every other delivery is real and
// booked by the ledger, so the measurement's virtual time is the ledger's
// plus what the case says the fabricated batch costs.
func TestSpoofWait(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	stuck := findStuckStages(c)
	if len(stuck) == 0 {
		t.Fatal("no sweep behind a silent direct probe: the test exercises nothing")
	}
	s := stuck[0]
	bg := context.Background()
	timeoutUS := core.Revtr20Options().SpoofTimeoutUS
	const timeouts, failovers = "engine_spoof_batch_timeouts_total", "vp_failover_total"

	answer := func(rttUS int64) measure.Reply {
		return measure.Reply{Sent: true, RR: measure.RRResult{Responded: true, RTTUS: rttUS, Recorded: nineStamps(s.hop)}}
	}
	silence := measure.Reply{Sent: true}
	// fabricate builds the delivery of p the way the pool does: a packet
	// counted per sent request, MaxRTTUS the slowest reply.
	fabricate := func(p *core.Pending, replies ...measure.Reply) core.Delivery {
		b := probe.Batch{Replies: make([]measure.Reply, len(p.Reqs))}
		for i := range p.Reqs {
			rep := replies[min(i, len(replies)-1)]
			b.Replies[i] = rep
			if rep.Sent {
				b.Sent.SpoofRR++
			}
			b.MaxRTTUS = max(b.MaxRTTUS, rep.RTTUS())
		}
		return core.Delivery{Batch: b}
	}

	for _, tc := range []struct {
		name     string
		replies  []measure.Reply
		wantUS   int64
		timedOut uint64
		dead     bool // the first slot's vantage point is blacked out
	}{
		{"all answered", []measure.Reply{answer(1000), answer(3000), answer(2000)}, 3000, 0, false},
		{"one silent", []measure.Reply{answer(1000), silence, answer(2000)}, timeoutUS, 1, false},
		{"all silent", []measure.Reply{silence}, timeoutUS, 1, false},
		{"one never sent", []measure.Reply{answer(1000), {}, answer(2000)}, timeoutUS, 1, false},
		{"dead vantage point", []measure.Reply{{VPDead: true}, answer(1000)}, timeoutUS, 1, true},
		{"slowest reply later than the timeout", []measure.Reply{answer(1000), answer(timeoutUS + 2_000_000)}, timeoutUS, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			reg := observe(eng)
			l := waitLedger{timeoutUS: timeoutUS}
			fabricated := false
			mm := eng.Begin(bg, c.src, s.dst)
			for p := mm.Next(); p != nil; p = mm.Next() {
				if !fabricated && isSpoofSweep(p) && p.Reqs[0].Dst == s.hop {
					fabricated = true
					d := fabricate(p, tc.replies...)
					l.probes = l.probes.Add(d.Batch.Sent)
					mm.Deliver(d)
					if tc.dead {
						// The wait is charged and the failover still happens:
						// the sweep goes on without the dead vantage point.
						dead := p.Reqs[0].VP.Addr
						if got := reg.Counter(failovers).Value(); got != 1 {
							t.Errorf("%s = %d after a dead vantage point's slot, want 1", failovers, got)
						}
						if next := mm.Next(); next == nil || !isSpoofSweep(next) || next.Reqs[0].Dst != s.hop ||
							slices.ContainsFunc(next.Reqs, func(r probe.Request) bool { return r.VP.Addr == dead }) {
							t.Errorf("the sweep did not go on without %s after the failover", dead)
						}
					}
					continue
				}
				d := eng.ExecPending(mm.Context(), p)
				l.see(p, d)
				mm.Deliver(d)
			}
			res := mm.Result()
			if !fabricated {
				t.Fatalf("no sweep on hop %s", s.hop)
			}
			if want := l.chargedUS() + tc.wantUS; res.DurationUS != want {
				t.Errorf("DurationUS = %d, want %d: the fabricated batch cost %d, want %d",
					res.DurationUS, want, res.DurationUS-l.chargedUS(), tc.wantUS)
			}
			if res.Probes != l.probes || res.SpoofBatches != l.complete+l.short+1 {
				t.Errorf("Probes %+v, SpoofBatches %d; the deliveries add up to %+v and %d batches",
					res.Probes, res.SpoofBatches, l.probes, l.complete+l.short+1)
			}
			if got, want := reg.Counter(timeouts).Value(), uint64(l.short)+tc.timedOut; got != want {
				t.Errorf("%s = %d, want %d", timeouts, got, want)
			}
		})
	}

	t.Run("cancel-skipped batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(bg)
		eng, _ := c.engine(1, probe.RetryPolicy{})
		reg := observe(eng)
		var evs []stream.Event
		mm := eng.Begin(ctx, c.src, s.dst)
		mm.SetSink(func(ev stream.Event) { evs = append(evs, ev) })
		for p := mm.Next(); p != nil; p = mm.Next() {
			if !isSpoofSweep(p) || p.Reqs[0].Dst != s.hop {
				mm.Deliver(eng.ExecPending(mm.Context(), p))
				continue
			}
			beforeUS, timedOut := evs[len(evs)-1].VirtUS, reg.Counter(timeouts).Value()
			cancel()
			d := eng.ExecPending(mm.Context(), p)
			if d.Batch.Skipped == 0 {
				t.Fatal("the cancelled pool skipped nothing")
			}
			mm.Deliver(d)
			res := mm.Result()
			if res == nil || !res.Cancelled {
				t.Fatal("the measurement did not end cancelled")
			}
			if res.DurationUS != beforeUS || reg.Counter(timeouts).Value() != timedOut {
				t.Errorf("a batch the cancellation skipped cost %d us and %d timeouts, want none",
					res.DurationUS-beforeUS, reg.Counter(timeouts).Value()-timedOut)
			}
			return
		}
		t.Fatalf("no sweep on hop %s", s.hop)
	})

	t.Run("answered on a retry", func(t *testing.T) {
		// Real deliveries under loss: a batch that sent more packets than
		// it has requests and still holds every reply was completed by a
		// retry, and costs the retried reply's round trip plus the backoff
		// it waited (probe's addDelay), far below the timeout.
		c.env.Fabric.SetFaults(&faults.Plan{Seed: 8, LinkLoss: 0.1})
		defer c.env.Fabric.SetFaults(nil)
		eng, _ := c.engine(1, probe.RetryPolicy{Max: 2})
		found := 0
		for _, dst := range c.dsts {
			l := waitLedger{timeoutUS: timeoutUS}
			res := driveSeeing(bg, eng, c.src, dst, func(p *core.Pending, d core.Delivery) {
				l.see(p, d)
				if !p.Spoofed || shortOfReply(p, d.Batch) || d.Batch.Sent.SpoofRR <= uint64(len(p.Reqs)) {
					return
				}
				found++
				if d.Batch.MaxRTTUS < probe.DefaultBackoffUS || d.Batch.MaxRTTUS >= timeoutUS {
					t.Errorf("dst %s: a batch completed by a retry reports MaxRTTUS %d, want at least the %d backoff and below the timeout",
						dst, d.Batch.MaxRTTUS, int64(probe.DefaultBackoffUS))
				}
			})
			if res.DurationUS != l.chargedUS() {
				t.Errorf("dst %s: DurationUS = %d, the deliveries add up to %d", dst, res.DurationUS, l.chargedUS())
			}
		}
		if found == 0 {
			t.Fatal("no spoofed batch was completed by a retry: the case exercises nothing")
		}
	})

	t.Run("spoofed timestamp", func(t *testing.T) {
		// revtr 1.0's spoofed Timestamp fallback is a spoofed batch of one:
		// marked Spoofed, counted in SpoofBatches, charged by the same rule.
		// The adjacencies it tests come from the source's own traceroutes.
		adj := core.NewTracerouteAdjacencies()
		for i, dst := range c.dsts {
			tr, _ := c.env.Pool.Traceroute(bg, c.src.Agent, dst, uint64(1)<<32+uint64(i*measure.MaxTracerouteTTL), 1)
			adj.Ingest(tr)
		}
		eng := core.NewEngine(c.env.Fabric, c.env.Pool, c.ing, c.env.Sites, c.env.Alias,
			ip2as.Origin{Topo: c.env.Topo}, adj, core.Revtr10Options())
		reg := observe(eng)
		var tot waitLedger
		answered, silent := 0, 0
		for _, dst := range c.dsts {
			l := waitLedger{timeoutUS: timeoutUS}
			res := driveSeeing(bg, eng, c.src, dst, func(p *core.Pending, d core.Delivery) {
				l.see(p, d)
				if p.Kind != core.PendingProbes || p.Reqs[0].Kind != measure.KindSpoofedTS {
					return
				}
				if !p.Spoofed {
					t.Errorf("dst %s: a spoofed Timestamp probe suspended as a direct one", dst)
				}
				if d.Batch.Replies[0].TS.Responded {
					answered++
				} else {
					silent++
				}
			})
			if res.SpoofBatches != l.complete+l.short || res.DurationUS != l.chargedUS() {
				t.Errorf("dst %s: SpoofBatches %d, DurationUS %d; the deliveries add up to %d and %d",
					dst, res.SpoofBatches, res.DurationUS, l.complete+l.short, l.chargedUS())
			}
			tot.add(l)
		}
		t.Logf("spoofed Timestamp probes: %d answered, %d silent", answered, silent)
		if answered+silent == 0 {
			t.Fatal("no measurement fell back to a spoofed Timestamp probe: the case exercises nothing")
		}
		if got := reg.Counter(timeouts).Value(); got != uint64(tot.short) {
			t.Errorf("%s = %d, the deliveries show %d batches short of a reply", timeouts, got, tot.short)
		}
	})
}

// TestReplyCompleteLedger: the wait is the only thing the rule touches.
// Measurements are driven by hand with a wait-out-everything ledger kept
// beside them: Probes and SpoofBatches are the ledger's, DurationUS is the
// ledger's less timeout - MaxRTTUS for every batch that holds all its
// replies, and engine_spoof_batch_timeouts_total counts the others. A twin
// engine whose timeout is twice as long measures the same pairs through
// MeasureReverse: same Status, hops, Probes and SpoofBatches, and one more
// timeout of virtual time per batch short of a reply — nothing else reads
// the wait.
func TestReplyCompleteLedger(t *testing.T) {
	bg := context.Background()
	t.Logf("%-14s %6s %8s %9s %6s %7s %12s %12s", "plan", "pairs", "batches", "complete", "short", "share", "wait-out s", "charged s")
	check := func(name string, eng, twin *core.Engine, pairs []srcDst, minShare float64) {
		timeoutUS := eng.Opts.SpoofTimeoutUS
		timedOut := observe(eng).Counter("engine_spoof_batch_timeouts_total")
		tot := waitLedger{timeoutUS: timeoutUS}
		for _, pr := range pairs {
			l := waitLedger{timeoutUS: timeoutUS}
			res := driveSeeing(bg, eng, pr.src, pr.dst, l.see)
			if res.Probes != l.probes || res.SpoofBatches != l.complete+l.short || res.DurationUS != l.chargedUS() {
				t.Errorf("%s %s->%s: Probes %+v SpoofBatches %d DurationUS %d; the deliveries add up to %+v, %d and %d",
					name, pr.src.Agent.Addr, pr.dst, res.Probes, res.SpoofBatches, res.DurationUS,
					l.probes, l.complete+l.short, l.chargedUS())
			}
			tw := twin.MeasureReverse(bg, pr.src, pr.dst)
			if tw.Status != res.Status || !reflect.DeepEqual(tw.Hops, res.Hops) || tw.Probes != res.Probes || tw.SpoofBatches != res.SpoofBatches {
				t.Errorf("%s %s->%s: a longer timeout changed the measurement:\n%s\n%s",
					name, pr.src.Agent.Addr, pr.dst, renderCoreResult(res), renderCoreResult(tw))
			}
			if got, want := tw.DurationUS-res.DurationUS, int64(l.short)*(twin.Opts.SpoofTimeoutUS-timeoutUS); got != want {
				t.Errorf("%s %s->%s: twice the timeout costs %d more, want %d for %d batches short of a reply",
					name, pr.src.Agent.Addr, pr.dst, got, want, l.short)
			}
			tot.add(l)
		}
		if got := timedOut.Value(); got != uint64(tot.short) {
			t.Errorf("%s: engine_spoof_batch_timeouts_total = %d, the deliveries show %d batches short of a reply", name, got, tot.short)
		}
		batches := tot.complete + tot.short
		share := float64(tot.complete) / float64(max(batches, 1))
		t.Logf("%-14s %6d %8d %9d %6d %7.3f %12.1f %12.1f", name, len(pairs), batches, tot.complete, tot.short, share,
			float64(tot.waitOutUS)/1e6, float64(tot.chargedUS())/1e6)
		if batches == 0 || tot.short == 0 || share < minShare || tot.complete == 0 {
			t.Errorf("%s: %d of %d spoofed batches complete, want both classes and a share of at least %.2f", name, tot.complete, batches, minShare)
		}
	}
	twice := core.Revtr20Options()
	twice.SpoofTimeoutUS *= 2
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, dst := range c.dsts {
			pairs = append(pairs, srcDst{c.src, dst})
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		twin, _ := c.engineOpts(1, probe.RetryPolicy{}, twice)
		check(fmt.Sprintf("seed%d/clean", seed), eng, twin, pairs, 0.7)

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		twin, _ = c.engineOpts(1, probe.RetryPolicy{Max: 2}, twice)
		check(fmt.Sprintf("seed%d/faulty", seed), eng, twin, pairs, 0)
	}
	if testing.Short() {
		return
	}
	// The benchmark's world — 1000 ASes, 30 sites, seed 31 — and the 520
	// pairs TestRangeVerdictDifferential measures on it.
	cfg := revtr.DefaultConfig(1000)
	cfg.Seed, cfg.Topology.Seed, cfg.Sites = 31, 31, 30
	d := revtr.Build(cfg)
	dests := d.OnePerPrefix()
	var pairs []srcDst
	for si := 0; si < 8; si++ {
		src := d.NewSource(d.PickSourceHost(si * 17))
		for k, n := 0, 0; n < 65; k++ {
			if dst := dests[(si*29+k*211)%len(dests)]; dst.AS != src.Agent.AS {
				pairs = append(pairs, srcDst{src, dst.Addr})
				n++
			}
		}
	}
	check("bench/clean", d.Engine(core.Revtr20Options()), d.Engine(twice), pairs, 0.7)
}
