// Package probe executes batches of measurement probes over the
// simulated fabric — the §5.2.4 scalability substrate. The paper's
// system issues each spoofed-RR batch of 3 vantage points in parallel and
// runs many reverse traceroutes at once; Pool provides exactly that: a
// bounded worker budget over the (thread-safe) fabric under which many
// callers execute []probe.Request batches at once, aggregating probe
// counters atomically and charging virtual time per batch as the max RTT
// within the batch rather than a serial sum. The parallelism is across
// batches: one batch holds one worker slot and issues its requests in
// request order, because the engine's widest batch is 3 probes and a
// probe into the simulated fabric costs a few microseconds of CPU, far
// less than handing it to another goroutine.
//
// Determinism contract: requests are measure.Specs, whose probe IDs and
// load-balancer nonces are pure functions of what the probe is and its
// measurement's salt. Do always issues every request of a batch at one
// virtual instant (no intra-batch early exit), so the replies and counters
// of a batch are bit-identical no matter how many workers the pool has or
// how concurrent batches interleave — serial and concurrent runs of the
// same measurement cannot diverge.
//
// Cancellation contract: Do observes ctx between request launches. A
// cancelled batch still returns the replies of every request already
// launched (those probes were "on the wire"); requests never launched
// report Sent == false and are not accounted.
package probe

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
)

// Request is one probe to issue: a measure.Spec (the pure per-probe
// description introduced by the probe-layer split).
type Request = measure.Spec

// DefaultBackoffUS is the virtual-time delay before the first retry; it
// doubles per retry.
const DefaultBackoffUS = 50_000

// RetryPolicy is the deployment's whole budget for re-asking a question
// that drew silence: how much loss it has declared. Three mechanisms spend
// it. The pool re-issues an unanswered probe up to Max times; in an ingress
// plan's RR stage only a spoofed round's lead and the hedges behind one that
// answered (and revtr 1.0's Timestamp probes), as the round re-asks the
// direct probe. The engine sends at most Max of the hedges behind a lead that
// drew no reply, once each: they are its retries from other vantage points.
// And a symmetry traceroute's window above a hop whose Record Route stage
// closed silent gives up after 2 + Max silent TTLs, not measure.SilentRun.
// Traceroute TTLs are never retried: Pool.Traceroute does not go through
// issue.
//
// The pool's retries back off exponentially in virtual time: retry k of a
// request issued at t is issued at t plus the cumulative backoff, with no
// wall-clock sleeping. Retries are decided purely by the reply content
// (answered or not), so a batch with retries is still bit-identical across
// worker counts. Unsent probes (spoof-incapable or blacked-out vantage
// points) are never retried — the condition is not transient within a
// measurement.
type RetryPolicy struct {
	// Max is the number of re-issues after the first attempt (0: none).
	Max int
}

// responded reports whether the sent reply rep answers req (per probe
// kind), i.e. whether a retry would be pointless.
func responded(req Request, rep measure.Reply) bool {
	switch req.Kind {
	case measure.KindPing:
		return rep.Ping.Alive
	case measure.KindRR, measure.KindSpoofedRR:
		return rep.RR.Responded
	case measure.KindTS, measure.KindSpoofedTS:
		return rep.TS.Responded
	default: // measure.KindTraceroutePkt
		return rep.Delivered
	}
}

// addDelay folds the cumulative retry delay into the reply's responder
// RTT, so batch wall-clock (MaxRTTUS) charges the full elapsed virtual
// time of the request including the backoff spent waiting.
func addDelay(rep measure.Reply, delayUS int64) measure.Reply {
	if rep.Ping.Alive {
		rep.Ping.RTTUS += delayUS
	}
	if rep.RR.Responded {
		rep.RR.RTTUS += delayUS
	}
	if rep.TS.Responded {
		rep.TS.RTTUS += delayUS
	}
	if rep.Hop.Responded {
		rep.Hop.RTTUS += delayUS
	}
	return rep
}

// Batch is the outcome of one Do call.
type Batch struct {
	// Replies holds one entry per request, in request order, regardless
	// of completion order.
	Replies []measure.Reply
	// Sent tallies the probes actually issued (skipped spoof-incapable
	// vantage points and cancelled slots are not counted).
	Sent measure.Counters
	// MaxRTTUS is the largest responder RTT in the batch — the batch's
	// virtual wall-clock cost under the paper's concurrent-batch
	// semantics (probes fly in parallel; the batch is done when the
	// slowest reply lands).
	MaxRTTUS int64
	// Skipped counts requests never launched (context cancelled first).
	Skipped int
}

// Pool executes probe batches over a fabric with bounded concurrency.
// It is safe for concurrent use by any number of goroutines; all calls
// share one worker budget.
type Pool struct {
	F *fabric.Fabric

	clock   *measure.Clock
	workers int
	sem     chan struct{}
	retry   RetryPolicy

	// Aggregate counters, atomic so concurrent batches can share them.
	ping, rr, spoofRR, ts, spoofTS, traceroute atomic.Uint64

	// Asynchronous work queue (Go / GoTraceroute): tasks wait here as
	// closures, not as parked goroutines; the executor hands each the pool,
	// so none captures it (a smaller closure). Executor goroutines are spawned
	// on demand up to the worker budget and exit when the queue drains,
	// so an idle pool holds zero goroutines no matter how many suspended
	// measurements it serves.
	qmu   sync.Mutex
	queue []func(*Pool)
	execs int

	inFlight    *obs.Gauge
	asyncQueued *obs.Gauge
	batchSize   *obs.Histogram
	batchWallUS *obs.Histogram
	batches     *obs.Counter
	retries     *obs.Counter
}

// batchSizeBuckets spans single probes through revtr 1.0's widest VP
// sweeps.
var batchSizeBuckets = []int64{1, 2, 3, 6, 12, 24, 48, 96, 200}

// New creates a pool over f sharing clock. workers <= 0 selects
// GOMAXPROCS.
func New(f *fabric.Fabric, clock *measure.Clock, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if clock == nil {
		clock = measure.NewClock()
	}
	return &Pool{
		F:       f,
		clock:   clock,
		workers: workers,
		sem:     make(chan struct{}, workers),
	}
}

// SetObs attaches pool metrics to a registry: the in-flight probe gauge,
// batch-size and batch-latency histograms, and a batch counter. Call
// before the pool is in use.
func (p *Pool) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.inFlight = reg.Gauge("probe_pool_inflight")
	p.asyncQueued = reg.Gauge("probe_pool_async_queue")
	p.batchSize = reg.Histogram("probe_pool_batch_size", batchSizeBuckets)
	p.batchWallUS = reg.Histogram("probe_pool_batch_wall_us", nil)
	p.batches = reg.Counter("probe_pool_batches_total")
	p.retries = reg.Counter("probe_retries_total")
}

// SetRetry installs the pool's retry policy (used by Do; DoWith and Go
// take one per call). Call before the pool is in use.
func (p *Pool) SetRetry(pol RetryPolicy) { p.retry = pol }

// Retry reports the pool's retry policy.
func (p *Pool) Retry() RetryPolicy { return p.retry }

// Clock exposes the pool's virtual clock.
func (p *Pool) Clock() *measure.Clock { return p.clock }

// Now reads the pool's virtual clock (microseconds).
func (p *Pool) Now() int64 { return p.clock.Now() }

// CanSend reports now what a probe from a would get as Reply.Sent.
func (p *Pool) CanSend(a ipv4.Addr) bool { return !p.F.Down(a, p.clock.Now()) }

// Counters snapshots the pool-wide probe tallies.
func (p *Pool) Counters() measure.Counters {
	return measure.Counters{
		Ping:       p.ping.Load(),
		RR:         p.rr.Load(),
		SpoofRR:    p.spoofRR.Load(),
		TS:         p.ts.Load(),
		SpoofTS:    p.spoofTS.Load(),
		Traceroute: p.traceroute.Load(),
	}
}

// account records one issued spec in the pool-wide tallies.
func (p *Pool) account(sp Request) {
	switch sp.Kind {
	case measure.KindPing:
		p.ping.Add(1)
	case measure.KindRR:
		p.rr.Add(1)
	case measure.KindSpoofedRR:
		p.spoofRR.Add(1)
	case measure.KindTS:
		p.ts.Add(1)
	case measure.KindSpoofedTS:
		p.spoofTS.Add(1)
	case measure.KindTraceroutePkt:
		p.traceroute.Add(1)
	}
}

// Do executes every request at one virtual instant, under the pool's
// retry policy, and returns when all launched requests have
// completed. Every request is launched unless ctx is cancelled first, so
// the result is deterministic for a deterministic fabric.
func (p *Pool) Do(ctx context.Context, reqs []Request) Batch {
	return p.run(ctx, reqs, p.retry)
}

// DoWith is Do under pol instead of the pool's retry policy.
func (p *Pool) DoWith(ctx context.Context, reqs []Request, pol RetryPolicy) Batch {
	return p.run(ctx, reqs, pol)
}

// run takes one worker slot, issues the batch in request order on the
// caller's goroutine, and releases the slot (like Traceroute).
func (p *Pool) run(ctx context.Context, reqs []Request, pol RetryPolicy) Batch {
	out := Batch{Replies: make([]measure.Reply, len(reqs))}
	if len(reqs) == 0 {
		return out
	}
	nowUS := p.clock.Now()
	launched := 0
	p.sem <- struct{}{}
	for i, req := range reqs {
		if ctx.Err() != nil {
			break
		}
		launched++
		p.inFlight.Add(1)
		rep, attempts := p.issue(req, nowUS, pol)
		p.inFlight.Add(-1)
		out.Replies[i] = rep
		if !rep.Sent {
			continue
		}
		out.Sent = out.Sent.Add(req.Delta().Scale(attempts))
		if rtt := rep.RTTUS(); rtt > out.MaxRTTUS {
			out.MaxRTTUS = rtt
		}
	}
	<-p.sem
	out.Skipped = len(reqs) - launched
	p.batches.Inc()
	p.batchSize.Observe(int64(len(reqs)))
	p.batchWallUS.Observe(out.MaxRTTUS)
	return out
}

// issue sends one request at nowUS and re-issues it while it goes
// unanswered, later in virtual time with doubling backoff. It returns
// the last reply and the number of probes sent. The retry decision
// depends only on the reply, so batches with retries stay deterministic.
func (p *Pool) issue(req Request, nowUS int64, pol RetryPolicy) (measure.Reply, uint64) {
	rep := measure.Issue(p.F, req, nowUS)
	if !rep.Sent {
		return rep, 0
	}
	p.account(req)
	attempts := uint64(1)
	var delayUS int64
	for a := 1; a <= pol.Max && !responded(req, rep); a++ {
		delayUS += DefaultBackoffUS << (a - 1)
		r2 := measure.Issue(p.F, req, nowUS+delayUS)
		p.retries.Inc()
		if !r2.Sent {
			break // VP went dark mid-measurement; not transient
		}
		p.account(req)
		attempts++
		rep = addDelay(r2, delayUS)
	}
	return rep, attempts
}

// Traceroute runs one pure Paris traceroute (measure.Trace) occupying a
// single worker slot for its duration (a traceroute is inherently
// sequential: each TTL's outcome decides whether to continue). No TTL is
// retried. Returns the zero result when ctx is already cancelled.
func (p *Pool) Traceroute(ctx context.Context, t measure.Trace) (measure.TracerouteResult, int) {
	if ctx.Err() != nil {
		return measure.TracerouteResult{}, 0
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	p.inFlight.Add(1)
	tr, sent := measure.RunTraceroute(p.F, t, p.clock.Now())
	p.inFlight.Add(-1)
	p.traceroute.Add(uint64(sent))
	return tr, sent
}

// Go executes a batch asynchronously: the request is queued and done is
// called with the finished Batch from an executor goroutine. The batch
// itself runs through the same run path as Do, so replies,
// counters, and virtual time are bit-identical to a synchronous call.
// Executors are bounded by the pool's worker budget and spin down when
// the queue drains: a caller with 10k suspended measurements holds 10k
// queued closures, not 10k goroutines. done must not block indefinitely
// (it runs on the executor; typical callers resume a state machine and
// either finish or re-queue).
//
//revtr:suspends queues the batch and parks the measurement until an executor resumes it
func (p *Pool) Go(ctx context.Context, reqs []Request, pol RetryPolicy, done func(Batch)) {
	p.submit(func(p *Pool) { done(p.run(ctx, reqs, pol)) })
}

// GoTraceroute is Traceroute, asynchronously, under the same executor
// discipline as Go.
//
//revtr:suspends queues the traceroute and parks the measurement until an executor resumes it
func (p *Pool) GoTraceroute(ctx context.Context, t measure.Trace, done func(measure.TracerouteResult, int)) {
	p.submit(func(p *Pool) { done(p.Traceroute(ctx, t)) })
}

// submit enqueues one task and ensures an executor is running. The
// spawn decision and the queue append happen under one lock, so a task
// is never left queued with zero executors: the last executor only
// exits after observing an empty queue under the same lock.
func (p *Pool) submit(task func(*Pool)) {
	p.qmu.Lock()
	p.queue = append(p.queue, task)
	p.asyncQueued.Set(int64(len(p.queue)))
	if p.execs < p.workers {
		p.execs++
		go p.executor() //revtr:spawnbound executor count is capped at p.workers under qmu and each exits when the queue drains
	}
	p.qmu.Unlock()
}

// executor drains the async queue FIFO and exits when it is empty.
func (p *Pool) executor() {
	for {
		p.qmu.Lock()
		if len(p.queue) == 0 {
			p.execs--
			p.qmu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		if len(p.queue) == 0 {
			p.queue = nil // release the drained array's backing memory
		}
		p.asyncQueued.Set(int64(len(p.queue)))
		p.qmu.Unlock()
		task(p)
	}
}

// AsyncBacklog reports the number of queued (not yet executing)
// asynchronous tasks.
func (p *Pool) AsyncBacklog() int {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	return len(p.queue)
}
