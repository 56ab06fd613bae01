// Package campaign runs large batches of reverse traceroutes in parallel —
// the topology-mapping use case of §3 ("measuring from 800,000
// destinations to the 146 M-Lab sites in 10 days requires ≈11.7M reverse
// traceroutes per day") and the scalability story of §5.2.4.
//
// Work is sharded by source: each worker owns one or more sources and an
// engine per source (engines cache measurements per source, and atlas
// usefulness marks are per source), while all workers share one
// probe.Pool over the concurrency-safe data plane. Probe identities are
// deterministic functions of each measurement's own sequence numbers, so
// parallel campaigns are bit-identical to serial ones — the regression
// test in campaign_test.go holds the Summary and every per-task hop list
// equal across worker counts.
package campaign

import (
	"context"
	"runtime"
	"sync"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
)

// Task is one reverse traceroute request.
type Task struct {
	SourceIdx int // index into the campaign's sources
	Dst       ipv4.Addr
}

// Outcome is one completed task.
type Outcome struct {
	Task   Task
	Result *core.Result
}

// Summary aggregates a campaign.
type Summary struct {
	Attempted int
	Complete  int
	Aborted   int
	Failed    int
	// Invalid counts tasks rejected up front (SourceIdx out of range).
	// They are included in Attempted and Failed.
	Invalid int
	Probes  measure.Counters
	// VirtualUS sums per-measurement virtual durations (the system runs
	// them concurrently, so wall time is this divided by parallelism).
	VirtualUS int64
}

// Coverage is the completed fraction.
func (s Summary) Coverage() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Complete) / float64(s.Attempted)
}

// Runner executes campaigns over a deployment.
type Runner struct {
	D       *revtr.Deployment
	Sources []core.Source
	Opts    core.Options
	// Workers defaults to GOMAXPROCS (capped by the number of sources:
	// sharding is per source).
	Workers int
	// OnResult, if set, receives every outcome (called concurrently).
	OnResult func(Outcome)
	// OnProgress, if set, receives the running Summary and the task
	// total every ProgressEvery completed tasks and once at the end — the
	// §5.2.4 throughput accounting (revtrs done, probes spent, virtual
	// time consumed) while the campaign runs. Called concurrently from
	// workers; keep it cheap.
	OnProgress func(sum Summary, total int)
	// ProgressEvery is the OnProgress cadence in tasks (default 64).
	ProgressEvery int
	// Obs, if set, receives campaign_* counters/gauges plus the shared
	// engine metrics of every worker engine, live while the campaign
	// runs. The same registry can back a service's GET /metrics.
	Obs *obs.Registry
}

// Run measures every (source, destination) task. Tasks are sharded by
// source so each engine's cache and atlas stay single-writer. Tasks whose
// SourceIdx is out of range are rejected up front and counted as Failed
// (and Invalid) instead of panicking the campaign. The context flows to
// every MeasureReverse, so cancelling it drains the campaign promptly.
func (r *Runner) Run(ctx context.Context, tasks []Task) Summary {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(r.Sources) {
		workers = len(r.Sources)
	}
	if workers < 1 {
		workers = 1
	}
	every := r.ProgressEvery
	if every <= 0 {
		every = 64
	}

	// Shard valid tasks by source; reject the rest up front.
	bySource := make([][]Task, len(r.Sources))
	invalid := 0
	for _, t := range tasks {
		if t.SourceIdx < 0 || t.SourceIdx >= len(r.Sources) {
			invalid++
			continue
		}
		bySource[t.SourceIdx] = append(bySource[t.SourceIdx], t)
	}

	// The campaign's one set of books: every worker posts each finished
	// measurement here under mu (one uncontended lock next to a ≥65 µs
	// measurement), OnProgress reads copies of it, and it is what Run
	// returns.
	var (
		mu  sync.Mutex
		sum = Summary{Attempted: invalid, Failed: invalid, Invalid: invalid}
		wg  sync.WaitGroup
	)

	// Campaign, pool and shared engine metrics: counters are atomic, so
	// every worker engine can record into the same set.
	var engineMetrics *core.Metrics
	var obsDone, obsFailed, obsInvalid *obs.Counter
	if r.Obs != nil {
		r.D.Pool.SetObs(r.Obs)
		engineMetrics = core.NewMetrics(r.Obs)
		r.Obs.Gauge("campaign_tasks_total").Set(int64(len(tasks)))
		obsDone = r.Obs.Counter("campaign_tasks_done_total")
		obsFailed = r.Obs.Counter("campaign_tasks_failed_total")
		obsInvalid = r.Obs.Counter("campaign_tasks_invalid_total")
		obsDone.Add(uint64(invalid))
		obsFailed.Add(uint64(invalid))
		obsInvalid.Add(uint64(invalid))
	}
	if invalid > 0 && r.OnProgress != nil {
		r.OnProgress(sum, len(tasks))
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < len(r.Sources); si += workers {
				// A fresh engine per source over the deployment's one
				// probe pool: the per-source cache stays deterministic
				// (tasks of one source run in order), probe identities
				// derive from per-measurement sequence numbers, and the
				// fabric is deterministic — so per-source results are
				// identical regardless of how sources map to workers or
				// how many probes the pool flies at once.
				eng := core.NewEngine(r.D.Fabric, r.D.Pool, r.D.IngressSvc, r.D.SiteAgents,
					r.D.Alias, r.D.Mapper, nil, r.Opts)
				eng.SetMetrics(engineMetrics)
				src := r.Sources[si]
				for _, t := range bySource[si] {
					res := eng.MeasureReverse(ctx, src, t.Dst)
					if r.OnResult != nil {
						r.OnResult(Outcome{Task: t, Result: res})
					}
					mu.Lock()
					sum.Attempted++
					switch res.Status {
					case core.StatusComplete:
						sum.Complete++
					case core.StatusAborted:
						sum.Aborted++
					default:
						sum.Failed++
						obsFailed.Inc()
					}
					sum.VirtualUS += res.DurationUS
					sum.Probes = sum.Probes.Add(res.Probes)
					snap := sum
					mu.Unlock()
					obsDone.Inc()
					if r.OnProgress != nil && (snap.Attempted%every == 0 || snap.Attempted == len(tasks)) {
						r.OnProgress(snap, len(tasks))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return sum
}

// AllPairs builds the full cross product of sources and destinations.
func AllPairs(nSources int, dsts []ipv4.Addr) []Task {
	out := make([]Task, 0, nSources*len(dsts))
	for si := 0; si < nSources; si++ {
		for _, d := range dsts {
			out = append(out, Task{SourceIdx: si, Dst: d})
		}
	}
	return out
}
