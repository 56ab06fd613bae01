package core_test

// Tests for what a suspension costs, booked by Machine.Deliver: packets,
// virtual wait, spoofed-batch count — and for the rule a spoofed batch's
// wait follows: its slowest round trip when every request drew a reply,
// the timeout when one is missing. The unit cases pin both on fabricated
// deliveries; the ledger keeps the books of an engine that waits out every
// batch beside hand-driven measurements and requires that only the wait
// differs from them.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
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
// deliveries alone: the packets, the spoofed rounds by class, the virtual
// time had every spoofed round waited out the timeout, and what the rounds
// save against that. A round is a lead (or a whole batch) and the hedges
// sent behind it: short of a reply if one of them is, it costs the timeout
// after a lead that waited it out, and its lead's round trip plus the
// timeout after one that did not; holding every reply, its lead's round
// trip plus its hedges' slowest.
type waitLedger struct {
	timeoutUS       int64
	probes          measure.Counters
	complete, short int
	waitOutUS       int64 // every spoofed round charged timeoutUS
	savedUS         int64 // timeoutUS less what each round was charged
	leadWaited      bool  // the open round's lead waited out the timeout
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
	waited := shortOfReply(p, d.Batch) || d.Batch.MaxRTTUS >= l.timeoutUS
	switch {
	case !p.Hedges: // a round opens
		l.waitOutUS += l.timeoutUS
		if l.leadWaited = waited; waited {
			l.short++
			return
		}
		l.complete++
		l.savedUS += l.timeoutUS - d.Batch.MaxRTTUS
	case l.leadWaited: // the hedges flew inside the lead's timeout
	case waited:
		l.complete--
		l.short++
		l.savedUS -= l.timeoutUS
	default:
		l.savedUS -= d.Batch.MaxRTTUS
	}
}

// chargedUS is the virtual time the measurements must report.
func (l *waitLedger) chargedUS() int64 { return l.waitOutUS - l.savedUS }

// spoofWaitUS is the spoofed rounds' part of it.
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

// fabricate builds the delivery of p the way the pool does: a packet
// counted per sent request, MaxRTTUS the slowest reply. Fewer replies than
// requests repeat the last one.
func fabricate(p *core.Pending, replies ...measure.Reply) core.Delivery {
	b := probe.Batch{Replies: make([]measure.Reply, len(p.Reqs))}
	for i, req := range p.Reqs {
		rep := replies[min(i, len(replies)-1)]
		b.Replies[i] = rep
		if rep.Sent {
			b.Sent = b.Sent.Add(req.Delta())
		}
		b.MaxRTTUS = max(b.MaxRTTUS, rep.RTTUS())
	}
	return core.Delivery{Batch: b}
}

// answerTo is a reply to req that took rttUS and says nothing about the
// path: a full Record Route array that does not locate the hop, a
// Timestamp reply that stamped neither address. At 0 the probe was sent
// and not answered.
func answerTo(req probe.Request, rttUS int64) measure.Reply {
	if rttUS == 0 {
		return measure.Reply{Sent: true}
	}
	if req.Kind == measure.KindTS || req.Kind == measure.KindSpoofedTS {
		return measure.Reply{Sent: true, TS: measure.TSResult{Responded: true, RTTUS: rttUS, Stamped: []bool{false, false}}}
	}
	return measure.Reply{Sent: true, RR: measure.RRResult{Responded: true, RTTUS: rttUS, Recorded: nineStamps(req.Dst)}}
}

// waitPhase names the wait phase the machine suspended in, read off the
// shape of its pending p: a round's hedges apart from its lead.
func waitPhase(p *core.Pending) string {
	if p.Kind == core.PendingTraceroute {
		return "phTrWait"
	}
	if p.Hedges {
		return "hedges"
	}
	switch p.Reqs[0].Kind {
	case measure.KindRR:
		return "phRRWait"
	case measure.KindSpoofedRR:
		return "phSpoofWait"
	case measure.KindTS:
		return "phTSDirectWait"
	case measure.KindSpoofedTS:
		return "phTSSpoofWait"
	}
	return "?"
}

// sourceAdjacencies are the Timestamp adjacencies revtr 1.0 tests: those
// on the source's own traceroutes to c's destinations.
func sourceAdjacencies(c *chaosEnv) core.AdjacencyProvider {
	adj := core.NewTracerouteAdjacencies()
	for i, dst := range c.dsts {
		tr, _ := c.env.Pool.Traceroute(context.Background(), c.src.Agent, dst, uint64(1)<<32+uint64(i*measure.MaxTracerouteTTL), 1, nil)
		adj.Ingest(tr)
	}
	return adj
}

// TestDeliverBooks pins what one Deliver charges, phase by phase: the
// packets the delivery says were sent; then a traceroute's round trips, a
// direct batch's slowest reply, or a spoofed batch's spoofWait and one
// more of SpoofBatches — a round's hedges their own spoofWait and no more
// batches, nothing behind a lead that waited out the timeout — and for a
// delivery the cancellation cut short, the packets alone. Real deliveries
// drive a measurement up to the first suspension in the phase; that one is
// fabricated (for hedges, their lead too) and the books are read on either
// side of it.
func TestDeliverBooks(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	bg := context.Background()
	adj := sourceAdjacencies(c)
	r20, r10 := core.Revtr20Options(), core.Revtr10Options()
	timeoutUS := core.SpoofTimeoutUS

	for _, tc := range []struct {
		name, phase string
		opts        core.Options
		// rttUS is each slot's round trip, 0 for a probe sent and not
		// answered (the last repeats); a traceroute's total, with sent
		// packets. cancel cuts the delivery short: the batch launched its
		// first slot only, the traceroute nothing.
		rttUS       []int64
		sent        int
		cancel      bool
		wantUS      int64
		wantBatches int
		// leadUS is the round trip of the lead fabricated before hedges, 0
		// for a silent one; its reply reveals nothing.
		leadUS int64
	}{
		{"direct RR", "phRRWait", r20, []int64{4000}, 0, false, 4000, 0, 0},
		{"round's lead, answered", "phSpoofWait", r20, []int64{1000}, 0, false, 1000, 1, 0},
		{"round's lead, silent", "phSpoofWait", r20, []int64{0}, 0, false, timeoutUS, 1, 0},
		{"hedges behind an answered lead, every reply in", "hedges", r20, []int64{3000, 2000}, 0, false, 3000, 0, 1000},
		{"hedges behind an answered lead, short of a reply", "hedges", r20, []int64{2000, 0}, 0, false, timeoutUS, 0, 1000},
		{"hedges behind a silent lead", "hedges", r20, []int64{3000, 2000}, 0, false, 0, 0, 0},
		{"sweep batch, every reply in", "phSpoofWait", r10, []int64{1000, 3000, 2000}, 0, false, 3000, 1, 0},
		{"sweep batch, short of a reply", "phSpoofWait", r10, []int64{1000, 0}, 0, false, timeoutUS, 1, 0},
		{"direct Timestamp", "phTSDirectWait", r10, []int64{2500}, 0, false, 2500, 0, 0},
		{"spoofed Timestamp", "phTSSpoofWait", r10, []int64{0}, 0, false, timeoutUS, 1, 0},
		{"traceroute", "phTrWait", r20, []int64{7000}, 5, false, 7000, 0, 0},
		{"cancel-skipped batch", "phSpoofWait", r10, []int64{3000}, 0, true, 0, 0, 0},
		{"cancel-skipped traceroute", "phTrWait", r20, []int64{7000}, 0, true, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := core.NewEngine(c.env.Fabric, c.env.Pool, c.ing, c.env.Sites, c.env.Alias,
				ip2as.Origin{Topo: c.env.Topo}, adj, tc.opts)
			for _, dst := range c.dsts {
				ctx, cancel := context.WithCancel(bg)
				defer cancel()
				mm := eng.Begin(ctx, c.src, dst)
				for p := mm.Next(); p != nil; p = mm.Next() {
					if tc.phase == "hedges" && isSpoofSweep(p) && len(mm.Held()) > 0 {
						mm.Deliver(fabricate(p, answerTo(p.Reqs[0], tc.leadUS)))
						continue
					}
					if waitPhase(p) != tc.phase {
						mm.Deliver(eng.ExecPending(ctx, p))
						continue
					}
					d := core.Delivery{Tr: measure.TracerouteResult{RTTUS: tc.rttUS[0]}, TrSent: tc.sent}
					if p.Kind == core.PendingProbes {
						replies := make([]measure.Reply, len(tc.rttUS))
						for i, rtt := range tc.rttUS {
							replies[i] = answerTo(p.Reqs[i], rtt)
						}
						if tc.cancel {
							replies = append(replies, measure.Reply{}) // never launched
						}
						d = fabricate(p, replies...)
					}
					sent := d.Batch.Sent
					sent.Traceroute += uint64(d.TrSent)
					if tc.cancel {
						cancel()
						d.Batch.Skipped = len(p.Reqs) - 1
					}
					probes0, us0, batches0 := mm.Booked()
					mm.Deliver(d)
					probes, us, batches := mm.Booked()
					if probes.Sub(probes0) != sent || us-us0 != tc.wantUS || batches-batches0 != tc.wantBatches {
						t.Errorf("one Deliver in %s booked %+v, %d us and %d spoofed batches; want %+v, %d and %d",
							tc.phase, probes.Sub(probes0), us-us0, batches-batches0, sent, tc.wantUS, tc.wantBatches)
					}
					if res := mm.Result(); tc.cancel && (res == nil || !res.Cancelled || res.Probes != probes) {
						t.Errorf("the cut-short delivery did not end the measurement cancelled and charged %+v", probes)
					}
					return
				}
			}
			t.Fatalf("no measurement suspended in %s: the row exercises nothing", tc.phase)
		})
	}
}

// TestCancelKeepsDeliveredWaits: a measurement cancelled in the middle of a
// sweep keeps the wait and the count of every batch that was delivered to
// it, whichever step notices the cancellation — stepSpoofNext building the
// next batch, or Deliver handed a batch the pool skipped.
func TestCancelKeepsDeliveredWaits(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	bg := context.Background()
	// A sweep that goes on to a second batch.
	var dst, hop ipv4.Addr
	eng, _ := c.engine(1, probe.RetryPolicy{})
	for _, d := range c.dsts {
		var last ipv4.Addr
		driveSeeing(bg, eng, c.src, d, func(p *core.Pending, _ core.Delivery) {
			if !isSpoofSweep(p) {
				return
			}
			if p.Reqs[0].Dst == last && hop.IsZero() {
				dst, hop = d, last
			}
			last = p.Reqs[0].Dst
		})
	}
	if hop.IsZero() {
		t.Fatal("no sweep went on to a second batch: the test exercises nothing")
	}
	for _, inDeliver := range []bool{false, true} {
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		eng, _ := c.engine(1, probe.RetryPolicy{})
		l := waitLedger{timeoutUS: core.SpoofTimeoutUS}
		var firstUS int64 // what the sweep's first batch waited
		mm := eng.Begin(ctx, c.src, dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			if firstUS > 0 {
				cancel() // the second batch is pending: the pool skips all of it
				mm.Deliver(eng.ExecPending(ctx, p))
				break
			}
			d := eng.ExecPending(ctx, p)
			before := l.spoofWaitUS()
			l.see(p, d)
			mm.Deliver(d)
			if isSpoofSweep(p) && p.Reqs[0].Dst == hop {
				firstUS = l.spoofWaitUS() - before
				if !inDeliver {
					cancel() // stepSpoofNext finds it before building the second
				}
			}
		}
		res := mm.Result()
		if res == nil || !res.Cancelled || firstUS == 0 {
			t.Fatalf("in Deliver %v: the cancellation did not end the measurement after the sweep's first batch", inDeliver)
		}
		if res.DurationUS != l.chargedUS() || res.DurationUS < firstUS || res.SpoofBatches != l.complete+l.short || res.Probes != l.probes {
			t.Errorf("in Deliver %v: DurationUS %d, SpoofBatches %d, Probes %+v; the delivered batches add up to %d (%d the sweep's first), %d and %+v",
				inDeliver, res.DurationUS, res.SpoofBatches, res.Probes, l.chargedUS(), firstUS, l.complete+l.short, l.probes)
		}
	}
}

// TestSpoofWait pins the rule on one spoofed round. A sweep behind a
// silent direct probe is replayed on fresh engines with a fabricated
// delivery in place of its first round: the first reply the lead's, the
// rest its hedges' (the last repeats), each reply revealing nothing. Every
// other delivery is real and booked by the ledger, so the measurement's
// virtual time is the ledger's plus what the case says the fabricated round
// costs.
func TestSpoofWait(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	stuck := findStuckStages(c)
	if len(stuck) == 0 {
		t.Fatal("no sweep behind a silent direct probe: the test exercises nothing")
	}
	s := stuck[0]
	bg := context.Background()
	timeoutUS := core.SpoofTimeoutUS
	const timeouts, failovers = "engine_spoof_batch_timeouts_total", "vp_failover_total"

	answer := func(rttUS int64) measure.Reply { return answerTo(probe.Request{Dst: s.hop}, rttUS) }
	silence := answer(0)

	for _, tc := range []struct {
		name     string
		replies  []measure.Reply
		wantUS   int64
		timedOut uint64
		dead     bool // the lead's vantage point is blacked out
	}{
		{"all answered", []measure.Reply{answer(1000), answer(3000), answer(2000)}, 1000 + 3000, 0, false},
		{"one silent", []measure.Reply{answer(1000), silence, answer(2000)}, 1000 + timeoutUS, 1, false},
		{"the lead silent", []measure.Reply{silence, answer(3000), answer(2000)}, timeoutUS, 1, false},
		{"all silent", []measure.Reply{silence}, timeoutUS, 1, false},
		{"one never sent", []measure.Reply{answer(1000), {}, answer(2000)}, 1000 + timeoutUS, 1, false},
		{"dead vantage point", []measure.Reply{{VPDead: true}, answer(1000)}, timeoutUS, 1, true},
		{"slowest reply later than the timeout", []measure.Reply{answer(1000), answer(timeoutUS + 2_000_000)}, 1000 + timeoutUS, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _ := c.engine(1, probe.RetryPolicy{})
			reg := observe(eng)
			l := waitLedger{timeoutUS: timeoutUS}
			fabricated, hedged := false, false
			mm := eng.Begin(bg, c.src, s.dst)
			for p := mm.Next(); p != nil; p = mm.Next() {
				if !fabricated && isSpoofSweep(p) && p.Reqs[0].Dst == s.hop {
					fabricated = true
					if len(mm.Held()) == 0 {
						t.Fatalf("the sweep on %s opened on a round without hedges", s.hop)
					}
					d := fabricate(p, tc.replies[0])
					l.probes = l.probes.Add(d.Batch.Sent)
					mm.Deliver(d)
					if tc.dead {
						// The wait is charged and the failover still happens:
						// the round goes on without the dead vantage point.
						dead := p.Reqs[0].VP.Addr
						if got := reg.Counter(failovers).Value(); got != 1 {
							t.Errorf("%s = %d after a dead vantage point's slot, want 1", failovers, got)
						}
						if next := mm.Next(); next == nil || !next.Hedges ||
							slices.ContainsFunc(next.Reqs, func(r probe.Request) bool { return r.VP.Addr == dead }) {
							t.Errorf("the round did not go on to its hedges without %s after the failover", dead)
						}
					}
					continue
				}
				if fabricated && !hedged && p.Hedges {
					hedged = true
					d := fabricate(p, tc.replies[min(1, len(tc.replies)-1):]...)
					l.probes = l.probes.Add(d.Batch.Sent)
					mm.Deliver(d)
					continue
				}
				d := eng.ExecPending(mm.Context(), p)
				l.see(p, d)
				mm.Deliver(d)
			}
			res := mm.Result()
			if !fabricated || !hedged {
				t.Fatalf("no round on hop %s went on to its hedges", s.hop)
			}
			if want := l.chargedUS() + tc.wantUS; res.DurationUS != want {
				t.Errorf("DurationUS = %d, want %d: the fabricated round cost %d, want %d",
					res.DurationUS, want, res.DurationUS-l.chargedUS(), tc.wantUS)
			}
			if res.Probes != l.probes || res.SpoofBatches != l.complete+l.short+1 {
				t.Errorf("Probes %+v, SpoofBatches %d; the deliveries add up to %+v and %d rounds",
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
		eng := core.NewEngine(c.env.Fabric, c.env.Pool, c.ing, c.env.Sites, c.env.Alias,
			ip2as.Origin{Topo: c.env.Topo}, sourceAdjacencies(c), core.Revtr10Options())
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
		timeoutUS := core.SpoofTimeoutUS
		twin.SetSpoofTimeout(2 * timeoutUS)
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
			if got, want := tw.DurationUS-res.DurationUS, int64(l.short)*timeoutUS; got != want {
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
	for _, seed := range []int64{1, 2, 3} {
		c := newChaosEnv(t, seed, 100)
		var pairs []srcDst
		for _, dst := range c.dsts {
			pairs = append(pairs, srcDst{c.src, dst})
		}
		eng, _ := c.engine(1, probe.RetryPolicy{})
		twin, _ := c.engine(1, probe.RetryPolicy{})
		check(fmt.Sprintf("seed%d/clean", seed), eng, twin, pairs, 0.7)

		c.env.Fabric.SetFaults(&faults.Plan{Seed: uint64(seed), LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5})
		eng, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		twin, _ = c.engine(1, probe.RetryPolicy{Max: 2})
		check(fmt.Sprintf("seed%d/faulty", seed), eng, twin, pairs, 0)
	}
	if testing.Short() {
		return
	}
	d, pairs := benchSlice()
	check("bench/clean", d.Engine(core.Revtr20Options()), d.Engine(core.Revtr20Options()), pairs, 0.7)
}
