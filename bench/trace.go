package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// traceHeader carries the client's request id to the handler wrapper.
const traceHeader = "X-Bench-Req"

// Span names. Per request: client.req ⊃ service.submit ⊃ per-job
// sched.wait → core.measure → stream.deliver, each the parent of the
// next. Spans inside the program are a later change (ROADMAP item 3);
// these are recorded from the benchmark's own decorators.
const (
	spanClient  = "client.req"
	spanSubmit  = "service.submit"
	spanWait    = "sched.wait"
	spanMeasure = "core.measure"
	spanDeliver = "stream.deliver"
)

// span is one traced interval; times are nanoseconds since the traced
// pass began. Spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// jobTrace follows one led job from acceptance to delivery.
type jobTrace struct {
	req       int64
	measureID int64
	doneAt    int64
}

// submitInfo is the server-side handler span of one request.
type submitInfo struct {
	id    int64
	start int64
}

// tracer keeps spans in memory and writes them out when the pass ends.
type tracer struct {
	epoch time.Time
	dsts  int // universe width: pair index = src index × dsts + dst index
	index map[[2]ipv4.Addr]int32

	mu      sync.Mutex
	spans   []span
	nextID  int64
	jobs    map[int32]*jobTrace // pairs some in-flight request expects to lead
	submits map[int64]submitInfo
}

func newTracer(dep *deployment) *tracer {
	t := &tracer{epoch: now(), dsts: len(dep.dsts),
		index:   make(map[[2]ipv4.Addr]int32, len(dep.srcs)*len(dep.dsts)),
		jobs:    make(map[int32]*jobTrace),
		submits: make(map[int64]submitInfo)}
	for si, s := range dep.srcs {
		for di, d := range dep.dsts {
			t.index[[2]ipv4.Addr{s, d}] = int32(si*len(dep.dsts) + di)
		}
	}
	return t
}

func (t *tracer) clock() int64 { return sinceNS(t.epoch) }

// id hands out span and request ids. Callers hold t.mu.
func (t *tracer) id() int64 {
	t.nextID++
	return t.nextID
}

// beginRequest opens a client.req span (its id doubles as the request
// id) and claims the request's pairs: the first request to ask for a
// pair is the one whose job leads the measurement.
func (t *tracer) beginRequest(pairs []int32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	req := t.id()
	for _, p := range pairs {
		if t.jobs[p] == nil {
			t.jobs[p] = &jobTrace{req: req}
		}
	}
	return req
}

// endRequest closes the client.req span and drops the request's
// unresolved claims (jobs served from the day cache never execute).
func (t *tracer) endRequest(req int64, start time.Time, pairs []int32) {
	end := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: spanClient, ID: req, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end})
	for _, p := range pairs {
		if j := t.jobs[p]; j != nil && j.req == req {
			delete(t.jobs, p)
		}
	}
	delete(t.submits, req)
}

// delivered closes a job's stream.deliver span: backend done → the
// client read the job's terminal line.
func (t *tracer) delivered(req int64, pair int32) {
	end := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[pair]
	if j == nil || j.req != req || j.doneAt == 0 {
		return
	}
	t.spans = append(t.spans, span{Name: spanDeliver, ID: t.id(), Parent: j.measureID,
		Req: req, Start: j.doneAt, End: end})
	delete(t.jobs, pair)
}

// wrap records the service.submit span: the server-side handler time of
// the traced POST.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(traceHeader)
		if raw == "" {
			next.ServeHTTP(w, r)
			return
		}
		req, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.clock()
		t.mu.Lock()
		id := t.id()
		t.submits[req] = submitInfo{id: id, start: start}
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		end := t.clock()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: spanSubmit, ID: id, Parent: req, Req: req, Start: start, End: end})
		t.mu.Unlock()
	})
}

// enter marks the backend call for a pair: it closes the job's
// sched.wait span (accept → backend call; skipped on the sync path,
// which never queues) and returns the function that closes core.measure.
func (t *tracer) enter(src, dst ipv4.Addr, queued bool) func() {
	at := t.clock()
	pair, known := t.index[[2]ipv4.Addr{src, dst}]
	t.mu.Lock()
	j := t.jobs[pair]
	var sub submitInfo
	if known && j != nil {
		// A traced request claims its pairs before its POST reaches wrap;
		// until then a backend call for one of them belongs to an untraced
		// request that asked for the same pair.
		sub, known = t.submits[j.req]
	}
	if !known || j == nil {
		t.mu.Unlock()
		return func() {}
	}
	parent := sub.id
	if queued {
		wait := t.id()
		t.spans = append(t.spans, span{Name: spanWait, ID: wait, Parent: sub.id, Req: j.req, Start: sub.start, End: at})
		parent = wait
	}
	j.measureID = t.id()
	req, id := j.req, j.measureID
	t.mu.Unlock()
	return func() {
		end := t.clock()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: spanMeasure, ID: id, Parent: parent, Req: req, Start: at, End: end})
		j.doneAt = end
		t.mu.Unlock()
	}
}

// tracedBackend decorates the deployment backend with core.measure and
// sched.wait spans. It implements all four backend interfaces so that
// EnableBatch picks the same dispatch path as for the bare backend.
type tracedBackend struct {
	inner *service.DeploymentBackend
	t     *tracer
	// sources keeps what registration built (agent + atlas), so the
	// core drive can call the engine with the served sources. Written
	// only during set-up, before any measurement.
	sources map[ipv4.Addr]core.Source
}

// RegisterSource registers on a deployment whose fault plan has already
// run for a whole window. Under batch-lossy the bootstrap's RR
// reachability pings can then all be lost for a source the fresh servers
// accepted; like an operator, it asks again.
func (b *tracedBackend) RegisterSource(addr ipv4.Addr) (src core.Source, err error) {
	for try := 0; try < 8; try++ {
		if src, err = b.inner.RegisterSource(addr); err == nil {
			b.sources[addr] = src
			break
		}
	}
	return src, err
}

func (b *tracedBackend) RefreshAtlas(src core.Source) { b.inner.RefreshAtlas(src) }

func (b *tracedBackend) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	defer b.t.enter(src.Agent.Addr, dst, false)()
	return b.inner.Measure(ctx, src, dst)
}

func (b *tracedBackend) MeasureStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event)) *core.Result {
	defer b.t.enter(src.Agent.Addr, dst, true)()
	return b.inner.MeasureStream(ctx, src, dst, sink)
}

func (b *tracedBackend) MeasureAsync(ctx context.Context, src core.Source, dst ipv4.Addr, done func(*core.Result)) {
	leave := b.t.enter(src.Agent.Addr, dst, true)
	b.inner.MeasureAsync(ctx, src, dst, func(res *core.Result) { leave(); done(res) })
}

func (b *tracedBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event), done func(*core.Result)) {
	leave := b.t.enter(src.Agent.Addr, dst, true)
	b.inner.MeasureAsyncStream(ctx, src, dst, sink, func(res *core.Result) { leave(); done(res) })
}

// spanStats summarises the spans of one name.
type spanStats struct {
	count   int
	p50NS   int64
	totalNS int64
	selfNS  int64 // Σ duration minus the part child spans cover
}

// analysis is what the traced pass contributes to the report.
type analysis struct {
	byName       map[string]spanStats
	residualFrac float64 // share of client.req time no descendant span covers
	// httpOverheadNS is the median over requests of client.req time
	// during which none of the request's core.measure spans is open:
	// what HTTP, the handler and (for batches) queueing and delivery add
	// around the backend calls.
	httpOverheadNS int64
}

// analyse computes per-name self times and the request-level residual.
// A span's self time is its duration minus the union of its direct
// children clipped to its interval; the residual is client.req time
// covered by no descendant at all.
func (t *tracer) analyse() analysis {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	children := make(map[int64][]int, len(spans))
	byReq := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Name != spanClient {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	covered := func(s span, idx []int) int64 {
		iv := make([][2]int64, 0, len(idx))
		for _, i := range idx {
			a, b := max(spans[i].Start, s.Start), min(spans[i].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var sum, hi int64
		hi = s.Start
		for _, x := range iv {
			if x[1] <= hi {
				continue
			}
			sum += x[1] - max(x[0], hi)
			hi = x[1]
		}
		return sum
	}
	a := analysis{byName: make(map[string]spanStats)}
	durs := make(map[string][]int64)
	var clientNS, uncoveredNS int64
	var overhead []int64
	for _, s := range spans {
		d := s.End - s.Start
		st := a.byName[s.Name]
		st.count++
		st.totalNS += d
		st.selfNS += d - covered(s, children[s.ID])
		a.byName[s.Name] = st
		durs[s.Name] = append(durs[s.Name], d)
		if s.Name == spanClient {
			clientNS += d
			uncoveredNS += d - covered(s, byReq[s.Req])
			var measures []int
			for _, i := range byReq[s.Req] {
				if spans[i].Name == spanMeasure {
					measures = append(measures, i)
				}
			}
			overhead = append(overhead, d-covered(s, measures))
		}
	}
	for name, d := range durs {
		st := a.byName[name]
		st.p50NS = medianInt(d)
		a.byName[name] = st
	}
	if clientNS > 0 {
		a.residualFrac = float64(uncoveredNS) / float64(clientNS)
	}
	a.httpOverheadNS = medianInt(overhead)
	return a
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
