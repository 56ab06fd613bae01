package campaign_test

// Campaign-level chaos: a full multi-source campaign over a faulty
// fabric must keep the serial/parallel bit-identity guarantee and its
// probe accounting, and must terminate cleanly even when vantage points
// are blacked out mid-plan. Run with -race; `make chaos` does.

import (
	"context"
	"sync"
	"testing"

	"revtr"
	"revtr/internal/campaign"
	"revtr/internal/core"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
)

// faultyRunner is testRunner plus a fault plan attached after Build —
// atlas and ingress are surveyed healthy, the campaign's measurements
// contend with the faults — and per-probe retries enabled so a resized
// pool inherits the policy.
func faultyRunner(t *testing.T, workers int, plan *faults.Plan) (*campaign.Runner, []ipv4.Addr) {
	t.Helper()
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 41
	cfg.Topology.Seed = 41
	d := revtr.Build(cfg)
	if err := plan.Validate(); err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	d.Fabric.SetFaults(plan)
	d.Pool.SetRetry(probe.RetryPolicy{Max: 2})
	var sources []core.Source
	for i := 0; i < 4 && i < len(d.SiteAgents); i++ {
		sources = append(sources, d.SourceFromAgent(d.SiteAgents[i]))
	}
	var dsts []ipv4.Addr
	for i, h := range d.OnePerPrefix() {
		if i >= 30 {
			break
		}
		dsts = append(dsts, h.Addr)
	}
	return &campaign.Runner{
		D:       d,
		Sources: sources,
		Opts:    core.Revtr20Options(),
		Workers: workers,
	}, dsts
}

func runFaultyCollecting(t *testing.T, workers, probeWorkers int, plan *faults.Plan) (campaign.Summary, map[taskKey]string) {
	t.Helper()
	r, dsts := faultyRunner(t, workers, plan)
	sizePool(r.D, probeWorkers)
	var mu sync.Mutex
	got := make(map[taskKey]string)
	r.OnResult = func(o campaign.Outcome) {
		mu.Lock()
		got[taskKey{o.Task.SourceIdx, o.Task.Dst}] = renderResult(o.Result)
		mu.Unlock()
	}
	sum := r.Run(context.Background(), campaign.AllPairs(len(r.Sources), dsts))
	return sum, got
}

// TestCampaignChaosParallelMatchesSerial: the campaign determinism
// contract survives an active fault plan — identical Summary (statuses,
// probe counters, virtual time) and identical per-task hops between a
// serial run and a 4-worker/8-probe-worker run under the same plan.
func TestCampaignChaosParallelMatchesSerial(t *testing.T) {
	mk := func() *faults.Plan {
		return &faults.Plan{Seed: 17, LinkLoss: 0.1, ICMPFrac: 0.3, ICMPPass: 0.5, FlapFrac: 0.05}
	}
	s1, res1 := runFaultyCollecting(t, 1, 1, mk())
	s4, res4 := runFaultyCollecting(t, 4, 8, mk())
	if s1 != s4 {
		t.Fatalf("summaries differ under faults:\nserial   %+v\nparallel %+v", s1, s4)
	}
	if len(res1) != len(res4) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res4))
	}
	for k, want := range res1 {
		if got := res4[k]; got != want {
			t.Errorf("task src=%d dst=%s differs:\nserial   %s\nparallel %s",
				k.srcIdx, k.dst, want, got)
		}
	}
	if s1.Complete == 0 {
		t.Fatal("nothing completed under 10% loss with retries")
	}
	t.Logf("chaos campaign: %d/%d complete, %d probes", s1.Complete, s1.Attempted, s1.Probes.Total())
}

// TestCampaignChaosVPBlackout: blacking out every spoof-capable
// non-source site still yields a terminating campaign with consistent
// status accounting, and the plan records the blackout hits.
func TestCampaignChaosVPBlackout(t *testing.T) {
	plan := &faults.Plan{Seed: 23, LinkLoss: 0.05}
	r, dsts := faultyRunner(t, 4, plan)
	// Blackouts attach before Run but after Build: sources (indices
	// 0..3) stay alive, every other spoof-capable site goes dark.
	n := 0
	for i := len(r.D.SiteAgents) - 1; i >= len(r.Sources); i-- {
		if r.D.SiteAgents[i].CanSpoof {
			plan.AddBlackout(r.D.SiteAgents[i].Addr, 0, 0)
			n++
		}
	}
	if n == 0 {
		t.Skip("no spoof-capable non-source sites")
	}
	sum := r.Run(context.Background(), campaign.AllPairs(len(r.Sources), dsts))
	if sum.Complete+sum.Aborted+sum.Failed != sum.Attempted {
		t.Fatalf("status counts do not add up: %+v", sum)
	}
	if plan.Count(faults.KindBlackout) == 0 {
		t.Fatal("no blackout faults recorded despite dead vantage points")
	}
	t.Logf("blackout campaign: %d sites dark, %d/%d complete, %d blackout hits",
		n, sum.Complete, sum.Attempted, plan.Count(faults.KindBlackout))
}
