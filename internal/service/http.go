package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/stream"
)

// API is the HTTP front end (the REST flavour of the Appendix A APIs).
//
//	POST /api/v1/users            admin: create a user           (X-Admin-Key)
//	POST /api/v1/sources          register + bootstrap a source  (X-API-Key)
//	GET  /api/v1/sources          list sources
//	POST /api/v1/revtr            run reverse traceroutes        (X-API-Key)
//	GET  /api/v1/revtr/{id}       fetch a stored measurement
//	POST /api/v1/batch            submit an async batch (202)    (X-API-Key)
//	GET  /api/v1/batch/{id}       poll a batch's per-job states  (X-API-Key)
//	GET  /api/v1/batch/{id}/events  follow a batch live (NDJSON) (X-API-Key)
//	GET  /api/v1/firehose         follow completed measurements  (X-API-Key)
//	DELETE /api/v1/users/{key}    admin: revoke a key + cancel its batch jobs
//	GET  /api/v1/stats            service statistics
//	GET  /api/v1/health           liveness (JSON)
//	GET  /healthz                 liveness (plain text, for probes)
//	GET  /metrics                 observability registry, text format
type API struct {
	reg *Registry
	mux *http.ServeMux
	// mClass is http_responses_total{class} by status/100, resolved on first use.
	mClass [10]atomic.Pointer[obs.Counter]

	// maxBatchPairs and heartbeat are defaultMaxBatchPairs and
	// defaultHeartbeat; only this package's tests set others.
	maxBatchPairs int
	heartbeat     time.Duration
}

// defaultMaxBatchPairs caps the pairs accepted in one POST
// /api/v1/batch request (400 past it). Every pair allocates a scheduler
// job retained until its batch is evicted and is echoed in every status
// poll, so without a cap a single request with millions of pairs means
// unbounded allocation even though the queue cap sheds them.
const defaultMaxBatchPairs = 10000

// Request bodies are read through http.MaxBytesReader, so a hostile
// client cannot make a handler buffer more than its endpoint can use:
// maxBodyBytes on the small bodies (one user, source, NDT report, or a
// /revtr destination list), and on batch submit the pair cap at
// batchPairBytes a pair (a compact {"src":"a.b.c.d","dst":"a.b.c.d"},
// is at most 51) plus batchSlackBytes — enough that a body just over
// the pair cap still decodes and gets the 400 that says so.
const (
	maxBodyBytes    = 64 << 10
	batchPairBytes  = 64
	batchSlackBytes = 4 << 10
)

// NewAPI builds the HTTP handler over a registry.
func NewAPI(reg *Registry) *API {
	a := &API{reg: reg, mux: http.NewServeMux(),
		maxBatchPairs: defaultMaxBatchPairs, heartbeat: defaultHeartbeat}
	a.mux.HandleFunc("POST /api/v1/users", a.handleAddUser)
	a.mux.HandleFunc("POST /api/v1/sources", a.handleAddSource)
	a.mux.HandleFunc("GET /api/v1/sources", a.handleListSources)
	a.mux.HandleFunc("POST /api/v1/revtr", a.handleMeasure)
	a.mux.HandleFunc("GET /api/v1/revtr/{id}", a.handleGet)
	a.mux.HandleFunc("POST /api/v1/batch", a.handleBatchSubmit)
	a.mux.HandleFunc("GET /api/v1/batch/{id}", a.handleBatchStatus)
	a.mux.HandleFunc("GET /api/v1/batch/{id}/events", a.handleBatchEvents)
	a.mux.HandleFunc("GET /api/v1/firehose", a.handleFirehose)
	a.mux.HandleFunc("DELETE /api/v1/users/{key}", a.handleRevokeUser)
	a.mux.HandleFunc("POST /api/v1/ndt", a.handleNDT)
	a.mux.HandleFunc("GET /api/v1/stats", a.handleStats)
	a.mux.HandleFunc("GET /api/v1/health", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	a.mux.HandleFunc("GET /healthz", a.handleHealthz)
	a.mux.HandleFunc("GET /metrics", a.handleMetrics)
	return a
}

// ServeHTTP implements http.Handler, recording request count, latency,
// and response-class counters for every route.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o := a.reg.Obs()
	start := time.Now() //revtr:wallclock HTTP latency histogram measures real request time
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	a.mux.ServeHTTP(sw, r)
	o.Counter("http_requests_total").Inc()
	// net/http panics on a status outside 100–999, so the index is in range.
	class := &a.mClass[sw.code/100]
	c := class.Load()
	if c == nil {
		c = o.Counter(obs.Label("http_responses_total", "class", strconv.Itoa(sw.code/100)+"xx"))
		class.Store(c)
	}
	c.Inc()
	o.Histogram("http_request_duration_us", nil).Observe(time.Since(start).Microseconds()) //revtr:wallclock HTTP latency histogram measures real request time
}

// statusWriter captures the response status code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets an http.ResponseController reach the connection's own
// writer: the NDJSON event streams flush through it and clear the
// server's write deadline.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleHealthz is the plain-text liveness probe for load balancers and
// orchestration: cheap, no JSON, no auth.
func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// handleMetrics renders the full observability registry (service,
// engine, and anything else attached to it) in text format.
func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = a.reg.Obs().WriteText(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnauthorized):
		code = http.StatusUnauthorized
	case errors.Is(err, ErrRateLimited):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownSource):
		code = http.StatusNotFound
	case errors.Is(err, ErrBootstrap):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrNoUserName):
		code = http.StatusBadRequest
	case errors.Is(err, ErrUserExists):
		code = http.StatusConflict
	case errors.Is(err, sched.ErrRevoked):
		code = http.StatusUnauthorized
	case errors.Is(err, sched.ErrUnknownBatch), errors.Is(err, ErrUnknownUser):
		code = http.StatusNotFound
	case errors.Is(err, sched.ErrOverloaded), errors.Is(err, sched.ErrStopped),
		errors.Is(err, ErrBatchDisabled), errors.Is(err, ErrStreamDisabled),
		errors.Is(err, stream.ErrShutdown):
		code = http.StatusServiceUnavailable
	case errors.Is(err, stream.ErrTooManySubscribers), errors.Is(err, stream.ErrTooManyTopics):
		code = http.StatusTooManyRequests
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// decodeBody decodes the request's JSON body into v, reading at most
// limit bytes of it. On failure it has answered — 413 past the limit,
// 400 for anything json rejects — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", limit)})
	} else {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body"})
	}
	return false
}

func (a *API) handleAddUser(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name        string `json:"name"`
		MaxParallel int    `json:"maxParallel"`
		MaxPerDay   int    `json:"maxPerDay"`
	}
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	u, err := a.reg.AddUser(r.Header.Get("X-Admin-Key"), req.Name, req.MaxParallel, req.MaxPerDay)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, u)
}

func (a *API) handleAddSource(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr      string `json:"addr"`
		ServeAsVP bool   `json:"serveAsVP"`
	}
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	addr, err := ipv4.ParseAddr(req.Addr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad source address"})
		return
	}
	info, err := a.reg.RegisterSource(r.Header.Get("X-API-Key"), addr, req.ServeAsVP)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (a *API) handleListSources(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.reg.Sources())
}

func (a *API) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Src  string   `json:"src"`
		Dsts []string `json:"dsts"`
		// TimeoutMs caps each measurement's wall-clock time; 0 sets no
		// cap beyond the request's own context.
		TimeoutMs int64 `json:"timeoutMs"`
	}
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	src, err := ipv4.ParseAddr(req.Src)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad src address"})
		return
	}
	// Validate before measuring: a bad address anywhere rejects the whole
	// request, as batch submit does, before any measurement is run,
	// charged to the user's quota and archived.
	dsts := make([]ipv4.Addr, len(req.Dsts))
	for i, ds := range req.Dsts {
		if dsts[i], err = ipv4.ParseAddr(ds); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad dst address " + ds})
			return
		}
	}
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	key := r.Header.Get("X-API-Key")
	var out []*Measurement
	for _, dst := range dsts {
		// The request context propagates into the engine, so a client
		// that disconnects aborts its in-flight probing. The per-
		// measurement timeout stacks on top of it.
		ctx := r.Context()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		m, err := a.reg.Measure(ctx, key, src, dst)
		cancel()
		if err != nil {
			writeErr(w, err)
			return
		}
		out = append(out, m)
	}
	writeJSON(w, http.StatusOK, out)
}

func (a *API) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad id"})
		return
	}
	m, ok := a.reg.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such measurement"})
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleBatchSubmit accepts an asynchronous batch of (src, dst) pairs
// and answers 202 with the admission snapshot: cached pairs are already
// "coalesced", the rest are "queued" or "shed". Clients poll
// GET /api/v1/batch/{id} until done.
func (a *API) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pairs []struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		} `json:"pairs"`
	}
	maxPairs := a.maxBatchPairs
	if !decodeBody(w, r, int64(maxPairs)*batchPairBytes+batchSlackBytes, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	if len(req.Pairs) > maxPairs {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("batch too large: %d pairs exceeds the %d-pair limit; split the submission", len(req.Pairs), maxPairs)})
		return
	}
	specs := make([]sched.JobSpec, 0, len(req.Pairs))
	for _, p := range req.Pairs {
		src, err1 := ipv4.ParseAddr(p.Src)
		dst, err2 := ipv4.ParseAddr(p.Dst)
		if err1 != nil || err2 != nil {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("bad pair %s>%s", p.Src, p.Dst)})
			return
		}
		specs = append(specs, sched.JobSpec{Src: src, Dst: dst})
	}
	st, err := a.reg.SubmitBatch(r.Context(), r.Header.Get("X-API-Key"), specs)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleBatchStatus polls one batch. The admin key may inspect any
// batch; users see only their own.
func (a *API) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		key = r.Header.Get("X-Admin-Key")
	}
	st, err := a.reg.BatchStatus(key, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleRevokeUser deletes an API key and cancels the key's queued and
// running batch jobs.
func (a *API) handleRevokeUser(w http.ResponseWriter, r *http.Request) {
	if err := a.reg.RevokeUser(r.Header.Get("X-Admin-Key"), r.PathValue("key")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "revoked"})
}

// handleNDT is the Appendix A hook: an NDT server reports a speed test
// and the service opportunistically measures the reverse path from the
// client. No API key: the hook runs on trusted infrastructure; load
// shedding protects the system.
func (a *API) handleNDT(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Server string `json:"server"`
		Client string `json:"client"`
	}
	if !decodeBody(w, r, maxBodyBytes, &req) {
		return
	}
	server, err1 := ipv4.ParseAddr(req.Server)
	client, err2 := ipv4.ParseAddr(req.Client)
	if err1 != nil || err2 != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad address"})
		return
	}
	m, err := a.reg.NDT(r.Context(), server, client)
	if err != nil {
		writeErr(w, err)
		return
	}
	if m == nil {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "shed"})
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.reg.Stats())
}
