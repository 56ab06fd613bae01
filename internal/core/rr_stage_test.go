package core

import (
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// TestRRStageNext runs the RR stage's decision function over fabricated
// records, no world built: one row per action and per close reason, and the
// rows whose order decides between two that hold.
func TestRRStageNext(t *testing.T) {
	const maxVPs = 12
	hop := []ipv4.Addr{0x0a000001}
	plan := []int{0, 1, 2, 3, 4, 5}
	hedges := []probe.Request{{Kind: measure.KindSpoofedRR}, {Kind: measure.KindSpoofedRR}}
	// past is a stage past a direct probe that went out and drew no reply,
	// its plan read; swept is the same after one round, or a round's lead.
	past := func(f func(*rrStage)) rrStage {
		st := rrStage{sent: true, pastDirect: true, plan: plan}
		if f != nil {
			f(&st)
		}
		return st
	}
	swept := func(f func(*rrStage)) rrStage {
		return past(func(st *rrStage) {
			st.swept, st.cursor, st.tried, st.batchSent = true, 3, 3, true
			if f != nil {
				f(st)
			}
		})
	}
	for _, tc := range []struct {
		name string
		st   rrStage
		want rrAction
	}{
		// Opening.
		{"in range or unknown: direct probe", rrStage{}, rrDirect},
		{"out of range: skip", rrStage{far: true}, rrSkip},
		{"a silent verdict keeps its direct probe", rrStage{far: true, silent: true}, rrDirect},
		{"survey silence alone does not keep it", rrStage{far: true, surveySilent: true}, rrSkip},
		{"cached", rrStage{cached: true, hops: hop, tech: TechRR}, rrCached},
		{"cached empty entry", rrStage{cached: true}, rrCached},
		{"cached wins over deaf", rrStage{cached: true, deaf: true, far: true}, rrCached},
		{"deaf", rrStage{deaf: true}, rrDeaf},
		{"deaf wins over a skip", rrStage{deaf: true, far: true}, rrDeaf},

		// Past the direct probe, before any batch.
		{"direct probe revealed", past(func(st *rrStage) { st.answered, st.hops = true, hop }), rrRevealed},
		{"silent verdict", past(func(st *rrStage) { st.silent = true }), rrSilentVerdict},
		{"survey-only silent", past(func(st *rrStage) { st.surveySilent = true }), rrSurveySilent},
		{"verdict wins over survey", past(func(st *rrStage) { st.silent, st.surveySilent = true, true }), rrSilentVerdict},
		{"silence behind an answered direct probe sweeps", past(func(st *rrStage) { st.answered, st.silent = true, true }), rrBatch},
		{"silence behind a probe not sent sweeps", past(func(st *rrStage) { st.sent, st.silent, st.surveySilent = false, true, true }), rrBatch},
		{"skipped, source can send, survey silent", past(func(st *rrStage) { st.far, st.surveySilent = true, true }), rrSurveySilent},
		{"survey silence wins over no prefix", past(func(st *rrStage) { st.surveySilent, st.noPrefix, st.plan = true, true, nil }), rrSurveySilent},
		{"no prefix", past(func(st *rrStage) { st.noPrefix, st.plan = true, nil }), rrNoPrefix},
		{"empty plan", past(func(st *rrStage) { st.plan = nil }), rrExhausted},
		{"first batch", past(nil), rrBatch},

		// After a batch.
		{"batch revealed", swept(func(st *rrStage) { st.hops, st.tech, st.batchAnswered = hop, TechSpoofRR, true }), rrRevealed},
		{"silent batch", swept(nil), rrSilentBatch},
		{"an answered direct probe keeps the sweep past a silent batch", swept(func(st *rrStage) { st.answered = true }), rrBatch},
		{"a batch that sent nothing is no evidence", swept(func(st *rrStage) { st.batchSent = false }), rrBatch},
		{"a reply of any kind keeps the sweep", swept(func(st *rrStage) { st.batchAnswered = true }), rrBatch},
		{"a silent verdict after a batch is read no more", swept(func(st *rrStage) { st.answered, st.silent = true, true }), rrBatch},
		{"budget", swept(func(st *rrStage) { st.answered, st.tried = true, maxVPs }), rrBudget},
		{"budget wins over a silent batch", swept(func(st *rrStage) { st.tried = maxVPs }), rrBudget},
		{"revealed wins over the budget", swept(func(st *rrStage) { st.tried, st.hops = maxVPs, hop }), rrRevealed},
		{"plan exhausted", swept(func(st *rrStage) { st.answered, st.cursor = true, len(plan) }), rrExhausted},
		{"silent batch wins over an exhausted plan", swept(func(st *rrStage) { st.cursor = len(plan) }), rrSilentBatch},

		// After a round's lead, its hedges held.
		{"a lead that revealed, no hedge left that could reveal more", swept(func(st *rrStage) { st.hops, st.tech, st.batchAnswered = hop, TechSpoofRR, true }), rrRevealed},
		{"a lead that revealed, a hedge that could reveal more", swept(func(st *rrStage) { st.hops, st.batchAnswered, st.held = hop, true, hedges }), rrHedges},
		{"a silent lead sends its hedges: it is not a silent batch", swept(func(st *rrStage) { st.held = hedges }), rrHedges},
		{"a far lead sends its hedges", swept(func(st *rrStage) { st.batchAnswered, st.held = true, hedges }), rrHedges},
		{"a dead lead sends its hedges", swept(func(st *rrStage) { st.batchSent, st.dead, st.held = false, true, hedges }), rrHedges},
		{"hedges win over the budget", swept(func(st *rrStage) { st.tried, st.held = maxVPs, hedges }), rrHedges},
		{"hedges win over an exhausted plan", swept(func(st *rrStage) { st.cursor, st.held = len(plan), hedges }), rrHedges},
	} {
		if got := tc.st.next(maxVPs); got != tc.want {
			t.Errorf("%s: next = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRRStageMeasured: a stage is measured when its direct probe went out
// or could have, and no vantage point sat a slot out dead; a cached or deaf
// stage never is.
func TestRRStageMeasured(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   rrStage
		want bool
	}{
		{"direct probe sent", rrStage{sent: true, pastDirect: true}, true},
		{"source could not send", rrStage{pastDirect: true}, false},
		{"a VPDead slot", rrStage{sent: true, pastDirect: true, swept: true, dead: true}, false},
		{"cached", rrStage{cached: true, hops: []ipv4.Addr{1}}, false},
		{"deaf", rrStage{deaf: true}, false},
	} {
		if got := tc.st.measured(); got != tc.want {
			t.Errorf("%s: measured = %v, want %v", tc.name, got, tc.want)
		}
	}
}
