package core

import (
	"testing"

	"revtr/internal/ingress"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// TestRRStageNext runs the RR stage's decision function over fabricated
// records, no world built: one row per action and per close reason, and the
// rows whose order decides between two that hold. The first table is read
// with a retry to spend (a round re-asks a silent direct probe); the second
// at each budget. A stage is mute where Machine.mute read the hop so: at the
// open the table's witness alone, so that the survey's silence alone does
// not keep a far hop's direct probe; past it the survey's silence too.
func TestRRStageNext(t *testing.T) {
	const maxVPs = 12
	hop := []ipv4.Addr{0x0a000001}
	plan := []int{0, 1, 2, 3, 4, 5}
	hedges := []int{1, 2}
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
		{"a mute witness keeps its direct probe", rrStage{far: true, mute: true}, rrDirect},
		{"cached", rrStage{cached: true, hops: hop, tech: TechRR}, rrCached},
		{"cached empty entry", rrStage{cached: true}, rrCached},
		{"cached wins over deaf", rrStage{cached: true, deaf: true, far: true}, rrCached},
		{"deaf", rrStage{deaf: true}, rrDeaf},
		{"deaf wins over a skip", rrStage{deaf: true, far: true}, rrDeaf},

		// Past the direct probe, before any batch.
		{"direct probe revealed", past(func(st *rrStage) { st.answered, st.hops = true, hop }), rrRevealed},
		{"mute", past(func(st *rrStage) { st.mute = true }), rrSilent},
		{"muteness behind an answered direct probe sweeps", past(func(st *rrStage) { st.answered, st.mute = true, true }), rrBatch},
		{"muteness behind a probe not sent sweeps", past(func(st *rrStage) { st.sent, st.mute = false, true }), rrBatch},
		{"skipped, source can send, the survey's silence read past the skip", past(func(st *rrStage) { st.far, st.mute = true, true }), rrSilent},
		{"muteness wins over no prefix", past(func(st *rrStage) { st.mute, st.noPrefix, st.plan = true, true, nil }), rrSilent},
		{"no prefix", past(func(st *rrStage) { st.noPrefix, st.plan = true, nil }), rrNoPrefix},
		{"empty plan", past(func(st *rrStage) { st.plan = nil }), rrExhausted},
		{"first batch", past(nil), rrBatch},

		// After a batch.
		{"batch revealed", swept(func(st *rrStage) { st.hops, st.tech, st.batchAnswered = hop, TechSpoofRR, true }), rrRevealed},
		{"silent batch", swept(nil), rrSilentBatch},
		{"an answered direct probe keeps the sweep past a silent batch", swept(func(st *rrStage) { st.answered = true }), rrBatch},
		{"a batch that sent nothing is no evidence", swept(func(st *rrStage) { st.batchSent = false }), rrBatch},
		{"a reply of any kind keeps the sweep", swept(func(st *rrStage) { st.batchAnswered = true }), rrBatch},
		{"muteness after a batch is read no more", swept(func(st *rrStage) { st.answered, st.mute = true, true }), rrBatch},
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
		if got := tc.st.next(maxVPs, 1); got != tc.want {
			t.Errorf("%s: next = %d, want %d", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name    string
		st      rrStage
		retries int
		want    rrAction
	}{
		{"no retry: a silent direct probe closes", past(nil), 0, rrSilent},
		{"one retry: the round re-asks it", past(nil), 1, rrBatch},
		{"no budget applies (set cover, the rule off): the round", past(nil), -1, rrBatch},
		{"a skipped probe is no silence: the round", past(func(st *rrStage) { st.far = true }), 0, rrBatch},
		{"the atlas reached the hop's AS only by spoofed pings: the round", past(func(st *rrStage) { st.spoofedOnly = true }), 0, rrBatch},
		{"a mute hop closes there all the same", past(func(st *rrStage) { st.spoofedOnly, st.mute = true, true }), 0, rrSilent},
		{"a probe not sent closes nothing", past(func(st *rrStage) { st.sent = false }), 0, rrBatch},
		{"a VPDead slot closes nothing", past(func(st *rrStage) { st.dead = true }), 0, rrBatch},
		{"an answered probe closes nothing", past(func(st *rrStage) { st.answered = true }), 0, rrBatch},
		{"a mute hop closes as one", past(func(st *rrStage) { st.mute = true }), 0, rrSilent},
		{"a mute skipped hop closes as one", past(func(st *rrStage) { st.far, st.mute = true, true }), 0, rrSilent},
		{"it wins over no prefix", past(func(st *rrStage) { st.noPrefix, st.plan = true, nil }), 0, rrSilent},
		{"it wins over an empty plan", past(func(st *rrStage) { st.plan = nil }), 0, rrSilent},
		{"after a round it is read no more", swept(func(st *rrStage) { st.batchAnswered = true }), 0, rrBatch},
		{"a silent round still closes as one", swept(nil), 0, rrSilentBatch},
	} {
		if got := tc.st.next(maxVPs, tc.retries); got != tc.want {
			t.Errorf("%s (retries %d): next = %d, want %d", tc.name, tc.retries, got, tc.want)
		}
	}
}

// TestRRRetries: a silent direct probe's round is a retry only under an
// ingress plan with its rule on; set-cover and global plans send it as
// revtr 1.0 did.
func TestRRRetries(t *testing.T) {
	for _, tc := range []struct {
		name string
		sel  ingress.Selection
		off  rules
		max  int
		want int
	}{
		{"ingress, no retries", ingress.SelIngress, 0, 0, 0},
		{"ingress, two retries", ingress.SelIngress, 0, 2, 2},
		{"set cover", ingress.SelSetCover, 0, 0, -1},
		{"global", ingress.SelGlobal, 0, 0, -1},
		{"the rule off", ingress.SelIngress, ruleSilentDirect, 0, -1},
		{"another rule off", ingress.SelIngress, ruleSilentLead, 0, 0},
	} {
		pool := new(probe.Pool)
		pool.SetRetry(probe.RetryPolicy{Max: tc.max})
		mm := Machine{e: &Engine{Pool: pool, Opts: Options{VPSelection: tc.sel}, off: tc.off}}
		if got := mm.rrRetries(); got != tc.want {
			t.Errorf("%s: rrRetries = %d, want %d", tc.name, got, tc.want)
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
