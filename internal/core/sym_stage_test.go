package core

import (
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
)

// TestSymStageNext runs the symmetry stage's decision function over
// fabricated records, no world built: one row per action and per close
// reason, the rows whose order decides between two that hold, the window's
// give-up run, the three symmetry policies and the three rule bits the
// stage reads.
func TestSymStageNext(t *testing.T) {
	const (
		cur     = ipv4.Addr(0x0a000001)
		earlier = ipv4.Addr(0x0a000002) // the target of the traceroute a chain step continues
		penult  = ipv4.Addr(0x0a000003)
	)
	inAS := func(hop, dst ipv4.Addr) bool { return true }
	// open is a stage with no traceroute in hand and nothing that places the
	// cursor; held is one whose traceroute in hand shows an intradomain last
	// link to a hop not yet on the path.
	open := func(f func(*symStage)) symStage {
		st := symStage{cur: cur, dist: -1, within: inAS}
		if f != nil {
			f(&st)
		}
		return st
	}
	held := func(f func(*symStage)) symStage {
		return open(func(st *symStage) {
			st.have, st.penult, st.ttl, st.intra = true, penult, 5, true
			if f != nil {
				f(st)
			}
		})
	}
	// sent is what a start row's traceroute says: where it starts, how many
	// silent TTLs end its walk up, its target, whether it continues the
	// stage's last traceroute and whether it climbs.
	type sent struct {
		start, run   int
		dst          ipv4.Addr
		prev, within bool
	}
	window := func(start int) sent { return sent{start, measure.SilentRun, cur, false, true} }
	for _, tc := range []struct {
		name    string
		st      symStage
		policy  SymmetryPolicy
		retries int
		want    symAction
		sent    sent
	}{
		// Start rows.
		{"sweep", open(nil), SymIntraOnly, 0, symSweep, window(1)},
		{"atlas median", open(func(st *symStage) { st.median = 9 }), SymIntraOnly, 0, symMedian, window(9)},
		{"distance", open(func(st *symStage) { st.dist = 6 }), SymIntraOnly, 0, symDistance, window(7)},
		{"distance zero", open(func(st *symStage) { st.dist = 0 }), SymIntraOnly, 0, symDistance, window(1)},
		{"memo", open(func(st *symStage) { st.met = 5 }), SymIntraOnly, 0, symMemo, window(5)},
		{"chain step toward the earlier target", open(func(st *symStage) { st.chained, st.ttl, st.to = true, 4, earlier }),
			SymIntraOnly, 0, symChain, sent{4, measure.SilentRun, earlier, true, true}},
		{"chain step off a cached traceroute goes toward the hop", open(func(st *symStage) { st.chained, st.ttl = true, 4 }),
			SymIntraOnly, 0, symChain, sent{4, measure.SilentRun, cur, true, true}},

		// Order of the start rows.
		{"the cache beats the chain step", held(func(st *symStage) { st.chained, st.ttl = true, 4 }), SymIntraOnly, 0, symAdvance, sent{}},
		{"the chain step beats the memo and the distance", open(func(st *symStage) { st.chained, st.ttl, st.met, st.dist = true, 4, 5, 6 }),
			SymIntraOnly, 0, symChain, sent{4, measure.SilentRun, cur, true, true}},
		{"the memo beats the distance", open(func(st *symStage) { st.met, st.dist, st.median = 5, 6, 9 }), SymIntraOnly, 0, symMemo, window(5)},
		{"the distance beats the median", open(func(st *symStage) { st.dist, st.median = 6, 9 }), SymIntraOnly, 0, symDistance, window(7)},
		{"the median beats the sweep", open(func(st *symStage) { st.median = 2 }), SymIntraOnly, 0, symMedian, window(2)},

		// Rule bits.
		{"chain step off", open(func(st *symStage) { st.chained, st.ttl, st.dist, st.off = true, 4, 6, ruleChain }), SymIntraOnly, 0, symDistance, window(7)},
		{"memo off: no memo start and no climb rule", open(func(st *symStage) { st.met, st.dist, st.off = 5, 6, ruleMemo }),
			SymIntraOnly, 0, symDistance, sent{7, measure.SilentRun, cur, false, false}},
		{"memo off: a chain step does not climb either", open(func(st *symStage) { st.chained, st.ttl, st.off = true, 4, ruleMemo }),
			SymIntraOnly, 0, symChain, sent{4, measure.SilentRun, cur, true, false}},

		// The give-up run.
		{"above a silent RR stage, no retries", open(func(st *symStage) { st.dist, st.silentRR = 6, true }), SymIntraOnly, 0, symDistance, sent{7, 2, cur, false, true}},
		{"above a silent RR stage, one retry", open(func(st *symStage) { st.dist, st.silentRR = 6, true }), SymIntraOnly, 1, symDistance, sent{7, 3, cur, false, true}},
		{"above a silent RR stage, at most SilentRun", open(func(st *symStage) { st.dist, st.silentRR = 6, true }), SymIntraOnly, 5, symDistance, window(7)},
		{"a chain step above a silent RR stage", open(func(st *symStage) { st.chained, st.ttl, st.silentRR = true, 4, true }),
			SymIntraOnly, 0, symChain, sent{4, 2, cur, true, true}},
		{"the destination gives up after SilentRun", open(func(st *symStage) { st.dist, st.silentRR, st.atDst = 6, true, true }), SymIntraOnly, 0, symDistance, window(7)},
		{"short give-up off", open(func(st *symStage) { st.dist, st.silentRR, st.off = 6, true, ruleGiveUp }), SymIntraOnly, 0, symDistance, window(7)},

		// Verdict rows, and the policies.
		{"advance", held(nil), SymIntraOnly, 0, symAdvance, sent{}},
		{"advance, interdomain, SymAlways", held(func(st *symStage) { st.intra = false }), SymAlways, 0, symAdvance, sent{}},
		{"interdomain abort", held(func(st *symStage) { st.intra = false }), SymIntraOnly, 0, symInterAbort, sent{}},
		{"symmetry disabled", held(nil), SymNever, 0, symDisabled, sent{}},
		{"symmetry disabled, interdomain", held(func(st *symStage) { st.intra = false }), SymNever, 0, symDisabled, sent{}},
		{"already on the path", held(func(st *symStage) { st.onPath = true }), SymIntraOnly, 0, symOnPath, sent{}},
		{"the interdomain abort beats the path check", held(func(st *symStage) { st.intra, st.onPath = false, true }), SymIntraOnly, 0, symInterAbort, sent{}},
		{"no penultimate hop", held(func(st *symStage) { st.penult = 0 }), SymIntraOnly, 0, symNoPenult, sent{}},
		{"no penultimate hop, SymNever", held(func(st *symStage) { st.penult = 0 }), SymNever, 0, symNoPenult, sent{}},
		{"first hop, in the source's AS", held(func(st *symStage) { st.penult, st.adjacent = 0, true }), SymIntraOnly, 0, symFirstHopReach, sent{}},
		{"first hop, out of the source's AS", held(func(st *symStage) { st.penult, st.adjacent, st.intra = 0, true, false }), SymIntraOnly, 0, symFirstHopAbort, sent{}},
		{"first hop, out of the source's AS, SymAlways", held(func(st *symStage) { st.penult, st.adjacent, st.intra = 0, true, false }), SymAlways, 0, symFirstHopReach, sent{}},
		{"first hop, SymNever", held(func(st *symStage) { st.penult, st.adjacent = 0, true }), SymNever, 0, symFirstHopAbort, sent{}},
	} {
		act, tr := tc.st.next(tc.policy, tc.retries)
		got := sent{tr.Start, tr.Run, tr.Dst, tr.Prev != nil, tr.Within != nil}
		if act != tc.want || got != tc.sent {
			t.Errorf("%s: next = %d %+v, want %d %+v", tc.name, act, got, tc.want, tc.sent)
		}
		if tr.Prev != nil && tr.Prev != &tc.st.tr {
			t.Errorf("%s: a chain step continues another traceroute than the stage's", tc.name)
		}
	}
}

// TestLastLink reads last links off fabricated traceroutes: the nearest
// responsive public hop below the cursor's echo reply, or below the end of
// the path where the cursor did not answer; none where that hop is the
// cursor; the first-hop region where the cursor answered within two TTLs;
// and nothing from a traceroute that did not reach the destination.
func TestLastLink(t *testing.T) {
	const (
		cur  = ipv4.Addr(0x0b000001) // 11.0.0.1
		pub  = ipv4.Addr(0x08000001)
		priv = ipv4.Addr(0xc0a80001) // 192.168.0.1
	)
	hop := func(a ipv4.Addr) measure.TracerouteHop { return measure.TracerouteHop{Addr: a, Responded: true} }
	silent := measure.TracerouteHop{}
	for _, tc := range []struct {
		name     string
		tr       measure.TracerouteResult
		atDst    bool
		penult   ipv4.Addr
		ttl      int
		adjacent bool
	}{
		{"reached", measure.TracerouteResult{Hops: []measure.TracerouteHop{silent, hop(pub), hop(priv), silent, hop(cur)}, ReachedDst: true}, false, pub, 2, false},
		{"not reached: the last responsive public hop", measure.TracerouteResult{Hops: []measure.TracerouteHop{hop(pub), silent, silent}}, false, pub, 1, false},
		{"not reached at the destination", measure.TracerouteResult{Hops: []measure.TracerouteHop{hop(pub), silent}}, true, 0, 0, false},
		{"reached at the destination", measure.TracerouteResult{Hops: []measure.TracerouteHop{hop(pub), hop(cur)}, ReachedDst: true}, true, pub, 1, false},
		{"the hop below is the cursor", measure.TracerouteResult{Hops: []measure.TracerouteHop{hop(pub), silent, hop(cur), hop(cur)}, ReachedDst: true}, false, 0, 3, false},
		{"first-hop region", measure.TracerouteResult{Hops: []measure.TracerouteHop{silent, hop(cur)}, ReachedDst: true}, true, 0, 0, true},
		{"three TTLs out is not the first-hop region", measure.TracerouteResult{Hops: []measure.TracerouteHop{silent, silent, hop(cur)}, ReachedDst: true}, false, 0, 0, false},
		{"no hop", measure.TracerouteResult{}, false, 0, 0, false},
	} {
		penult, ttl, adjacent := lastLink(&tc.tr, cur, tc.atDst)
		if penult != tc.penult || ttl != tc.ttl || adjacent != tc.adjacent {
			t.Errorf("%s: lastLink = %s, %d, %v; want %s, %d, %v", tc.name, penult, ttl, adjacent, tc.penult, tc.ttl, tc.adjacent)
		}
	}
}
