package campaign_test

import (
	"context"
	"fmt"
	"strings"

	"sync"
	"sync/atomic"
	"testing"

	"revtr"
	"revtr/internal/campaign"
	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

func testRunner(t *testing.T, workers int) (*campaign.Runner, []ipv4.Addr) {
	t.Helper()
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 41
	cfg.Topology.Seed = 41
	d := revtr.Build(cfg)
	var sources []core.Source
	for i := 0; i < 4 && i < len(d.SiteAgents); i++ {
		sources = append(sources, d.SourceFromAgent(d.SiteAgents[i]))
	}
	var dsts []ipv4.Addr
	for i, h := range d.OnePerPrefix() {
		if i >= 40 {
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

// sizePool replaces the deployment's probe pool with one of n workers
// under the same retry policy, before anything has probed through it.
func sizePool(d *revtr.Deployment, n int) {
	pool := probe.New(d.Fabric, d.Clock, n)
	pool.SetRetry(d.Pool.Retry())
	d.Pool = pool
}

func TestCampaignSerial(t *testing.T) {
	r, dsts := testRunner(t, 1)
	tasks := campaign.AllPairs(len(r.Sources), dsts)
	sum := r.Run(context.Background(), tasks)
	if sum.Attempted != len(tasks) {
		t.Fatalf("attempted %d != %d", sum.Attempted, len(tasks))
	}
	if sum.Complete == 0 {
		t.Fatal("nothing completed")
	}
	if sum.Complete+sum.Aborted+sum.Failed != sum.Attempted {
		t.Fatal("status counts do not add up")
	}
	if sum.Probes.Total() == 0 {
		t.Fatal("no probes accounted")
	}
	t.Logf("serial: %d/%d complete, %d probes", sum.Complete, sum.Attempted, sum.Probes.Total())
}

// taskKey identifies one task across campaign runs.
type taskKey struct {
	srcIdx int
	dst    ipv4.Addr
}

// renderResult flattens a task result into a comparable string: status
// plus every hop address and technique, in order.
func renderResult(res *core.Result) string {
	var sb strings.Builder
	sb.WriteString(res.Status.String())
	for _, h := range res.Hops {
		fmt.Fprintf(&sb, " %s/%s/%v", h.Addr, h.Tech, h.SuspectBefore)
	}
	return sb.String()
}

// runCollecting runs a campaign with the given worker counts and returns
// the summary plus every per-task rendered result.
func runCollecting(t *testing.T, workers, probeWorkers int) (campaign.Summary, map[taskKey]string) {
	t.Helper()
	r, dsts := testRunner(t, workers)
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

// TestCampaignParallelMatchesSerial: per-source sharding, deterministic
// per-measurement probe identities, and a deterministic fabric make
// parallel campaigns bit-identical to serial ones — the same Summary
// (including probe counters and virtual time) and the same hops,
// techniques, and status for every individual task.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	s1, res1 := runCollecting(t, 1, 1)
	s4, res4 := runCollecting(t, 4, 8)
	if s1 != s4 {
		t.Fatalf("summaries differ:\nserial   %+v\nparallel %+v", s1, s4)
	}
	if len(res1) != len(res4) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res4))
	}
	for k, want := range res1 {
		if got, ok := res4[k]; !ok {
			t.Errorf("task src=%d dst=%s missing from parallel run", k.srcIdx, k.dst)
		} else if got != want {
			t.Errorf("task src=%d dst=%s differs:\nserial   %s\nparallel %s",
				k.srcIdx, k.dst, want, got)
		}
	}
}

func TestCampaignCallback(t *testing.T) {
	r, dsts := testRunner(t, 2)
	var calls atomic.Int64
	r.OnResult = func(o campaign.Outcome) {
		if o.Result == nil {
			t.Error("nil result in callback")
		}
		calls.Add(1)
	}
	tasks := campaign.AllPairs(len(r.Sources), dsts)
	r.Run(context.Background(), tasks)
	if int(calls.Load()) != len(tasks) {
		t.Fatalf("callback calls %d != tasks %d", calls.Load(), len(tasks))
	}
}

// TestCampaignMalformedTasks: tasks with out-of-range SourceIdx must not
// panic the runner (the seed crashed with index-out-of-range); they count
// as Failed (and Invalid) in the summary alongside the valid work.
func TestCampaignMalformedTasks(t *testing.T) {
	r, dsts := testRunner(t, 2)
	tasks := campaign.AllPairs(len(r.Sources), dsts[:5])
	nValid := len(tasks)
	tasks = append(tasks,
		campaign.Task{SourceIdx: -1, Dst: dsts[0]},
		campaign.Task{SourceIdx: len(r.Sources), Dst: dsts[1]},
		campaign.Task{SourceIdx: 9999, Dst: dsts[2]},
	)
	sum := r.Run(context.Background(), tasks)
	if sum.Attempted != len(tasks) {
		t.Fatalf("attempted %d != %d", sum.Attempted, len(tasks))
	}
	if sum.Invalid != 3 {
		t.Fatalf("invalid = %d, want 3", sum.Invalid)
	}
	if sum.Failed < 3 {
		t.Fatalf("failed = %d, want >= 3 (invalid tasks count as failed)", sum.Failed)
	}
	if sum.Complete+sum.Aborted+sum.Failed != sum.Attempted {
		t.Fatal("status counts do not add up")
	}
	if sum.Complete == 0 && nValid > 0 {
		t.Fatal("valid tasks did not run")
	}
}

// TestCampaignAllMalformed: a campaign of only invalid tasks terminates
// with everything failed and no panic.
func TestCampaignAllMalformed(t *testing.T) {
	r, dsts := testRunner(t, 2)
	tasks := []campaign.Task{
		{SourceIdx: -5, Dst: dsts[0]},
		{SourceIdx: 100, Dst: dsts[0]},
	}
	sum := r.Run(context.Background(), tasks)
	if sum.Attempted != 2 || sum.Failed != 2 || sum.Invalid != 2 {
		t.Fatalf("summary = %+v, want 2 attempted/failed/invalid", sum)
	}
}

// TestCampaignProgress: OnProgress delivers monotonically advancing
// snapshots ending at Done == Total, and the obs registry carries the
// same accounting.
func TestCampaignProgress(t *testing.T) {
	r, dsts := testRunner(t, 2)
	reg := obs.New()
	r.Obs = reg
	r.ProgressEvery = 7
	var (
		mu         sync.Mutex
		lastDone   int
		calls      int
		final      campaign.Summary
		finalTotal int
	)
	r.OnProgress = func(p campaign.Summary, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if p.Attempted < lastDone {
			t.Errorf("progress went backwards: %d after %d", p.Attempted, lastDone)
		}
		lastDone = p.Attempted
		final, finalTotal = p, total
	}
	tasks := campaign.AllPairs(len(r.Sources), dsts[:10])
	sum := r.Run(context.Background(), tasks)
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if final.Attempted != len(tasks) || finalTotal != len(tasks) {
		t.Fatalf("final progress %d/%d, want %d/%d", final.Attempted, finalTotal, len(tasks), len(tasks))
	}
	if final != sum {
		t.Fatalf("final progress %+v, want the returned summary %+v", final, sum)
	}
	if got := reg.Counter("campaign_tasks_done_total").Value(); got != uint64(len(tasks)) {
		t.Fatalf("obs done counter = %d, want %d", got, len(tasks))
	}
	if reg.Gauge("campaign_tasks_total").Value() != int64(len(tasks)) {
		t.Fatal("obs total gauge wrong")
	}
	// Engine metrics are shared across workers via the same registry.
	eng := reg.Counter("engine_measure_complete_total").Value() +
		reg.Counter("engine_measure_aborted_total").Value() +
		reg.Counter("engine_measure_failed_total").Value()
	if eng != uint64(sum.Attempted-sum.Invalid) {
		t.Fatalf("engine outcome counters = %d, want %d", eng, sum.Attempted-sum.Invalid)
	}
}

func TestCampaignWorkerClamp(t *testing.T) {
	r, dsts := testRunner(t, 99) // more workers than sources
	sum := r.Run(context.Background(), campaign.AllPairs(len(r.Sources), dsts))
	if sum.Attempted == 0 {
		t.Fatal("nothing ran")
	}
}
