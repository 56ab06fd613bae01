// Package service implements the open Reverse Traceroute service of
// Appendix A: a REST API through which users register sources (triggering
// the bootstrap: a record-route reachability check, atlas construction,
// and RR-alias probing), request reverse traceroute measurements to
// registered sources with per-user rate limits, and retrieve stored
// results. The real deployment exposes the same operations over REST and
// gRPC in front of its M-Lab vantage points; here the "Internet" is the
// simulated deployment.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/store"
	"revtr/internal/stream"
)

// User is a registered API user with the two rate-limit parameters the
// paper describes: parallel measurements and measurements per day.
type User struct {
	Name        string `json:"name"`
	APIKey      string `json:"apiKey"`
	MaxParallel int    `json:"maxParallel"`
	MaxPerDay   int    `json:"maxPerDay"`

	usedToday int
	inFlight  int
	// The quota gauges, resolved at AddUser.
	mInFlight, mUsedToday *obs.Gauge
}

// SourceInfo describes a registered Reverse Traceroute source.
type SourceInfo struct {
	Addr        string `json:"addr"`
	AtlasSize   int    `json:"atlasSize"`
	RRReachable bool   `json:"rrReachable"`
	ServesAsVP  bool   `json:"servesAsVP"`
}

// Measurement is a stored reverse traceroute result.
type Measurement struct {
	ID  int    `json:"id"`
	Src string `json:"src"`
	Dst string `json:"dst"`
	// User is the requesting user's name (never the API key); empty for
	// NDT-triggered measurements. Firehose owner-scoping matches on it.
	User       string        `json:"user,omitempty"`
	Status     string        `json:"status"`
	Hops       []MeasuredHop `json:"hops"`
	DurationUS int64         `json:"durationUs"`
	Probes     uint64        `json:"probes"`
}

// MeasuredHop is one hop of a stored result.
type MeasuredHop struct {
	Addr      string `json:"addr"`
	Technique string `json:"technique"`
	Suspect   bool   `json:"suspectMissingBefore,omitempty"`
	// Spliced marks hops adopted from the cross-measurement segment
	// store rather than probed by this measurement.
	Spliced bool `json:"spliced,omitempty"`
}

var (
	// ErrRateLimited is returned when a user exceeds a quota.
	ErrRateLimited = errors.New("service: rate limited")
	// ErrUnknownSource is returned for measurements toward unregistered
	// sources.
	ErrUnknownSource = errors.New("service: source not registered")
	// ErrUnauthorized is returned for missing/invalid API keys.
	ErrUnauthorized = errors.New("service: unauthorized")
	// ErrBootstrap is returned when a source cannot be bootstrapped.
	ErrBootstrap = errors.New("service: source bootstrap failed")
	// ErrNoUserName rejects a user without a name.
	ErrNoUserName = errors.New("service: user name required")
	// ErrUserExists rejects a user whose name a live user already holds.
	ErrUserExists = errors.New("service: user name taken")
)

// Backend abstracts the measurement system the service fronts (the
// simulated deployment in this repository; the M-Lab deployment in the
// real system).
type Backend interface {
	// RegisterSource bootstraps a source: RR reachability check + atlas.
	RegisterSource(addr ipv4.Addr) (core.Source, error)
	// Measure runs one reverse traceroute, blocking: POST /api/v1/revtr
	// and the NDT hook. Implementations must honor ctx
	// cancellation/deadline by returning promptly with a failed result.
	Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result
	// MeasureAsyncStream starts one reverse traceroute without parking a
	// goroutine for it — every batch job goes through here — and calls
	// done exactly once with the result, nil if the measurement panicked
	// after it started (core.Engine.MeasureAsyncStream). Progress events
	// flow to sink when it is non-nil; the sink must not block.
	//
	//revtr:suspends starting a measurement parks it until the backend's completion callback fires
	MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event), done func(*core.Result))
	// RefreshAtlas re-measures a source's atlas (the daily Random++
	// replacement of Appendix D.2).
	RefreshAtlas(src core.Source)
}

// Registry is the service state: users, sources, and the measurement
// archive. Safe for concurrent use. The archive is an internal/store
// append-only log — durable when the registry is built over an
// on-disk store, so measurement IDs survive a restart.
type Registry struct {
	mu          sync.Mutex
	backend     Backend
	users       map[string]*User // by API key
	sources     map[ipv4.Addr]*registeredSource
	archive     *store.Log
	sched       *sched.Scheduler // batch scheduler; nil until EnableBatch
	adminKey    string
	ndtInFlight int
	obs         *obs.Registry
	mStatus     map[string]*obs.Counter // service_measure_status_total{status}

	// broker is the progress-streaming fan-out; nil until EnableStream.
	// Atomic because publishJobEvent reads it under sched.mu, where
	// taking r.mu is forbidden (lock order sched.mu → r.mu).
	broker atomic.Pointer[stream.Broker]
}

type registeredSource struct {
	info SourceInfo
	src  core.Source
	// atlasMu serializes atlas refresh (DailyMaintenance) against
	// in-flight measurements, which read the same core.Source atlas:
	// measurements hold it shared, refresh holds it exclusive.
	atlasMu sync.RWMutex
}

// NewRegistry creates the service state with a memory-only measurement
// archive. adminKey authorizes user management. Every registry carries
// an obs.Registry; attach engine or campaign metrics to Obs() to
// surface them on GET /metrics.
func NewRegistry(backend Backend, adminKey string) *Registry {
	// A memory-only store.Log never fails to open.
	archive, err := store.Open("", store.Options{})
	if err != nil {
		panic(err)
	}
	return newRegistry(backend, adminKey, archive, obs.New())
}

// NewRegistryWithArchive creates the service state over an existing
// measurement archive (typically store.Open on a durable directory):
// measurements already in it keep their IDs, and new ones append after
// them — a restarted server recovers the identical pre-crash archive.
func NewRegistryWithArchive(backend Backend, adminKey string, archive *store.Log) *Registry {
	return newRegistry(backend, adminKey, archive, obs.New())
}

func newRegistry(backend Backend, adminKey string, archive *store.Log, o *obs.Registry) *Registry {
	// The archive's metrics (store_wal_bytes, ...) join the registry's
	// namespace, whatever obs it was opened with.
	archive.SetObs(o)
	mStatus := make(map[string]*obs.Counter)
	for _, st := range []core.Status{core.StatusComplete, core.StatusAborted, core.StatusFailed} {
		mStatus[st.String()] = o.Counter(obs.Label("service_measure_status_total", "status", st.String()))
	}
	return &Registry{
		backend:  backend,
		users:    make(map[string]*User),
		sources:  make(map[ipv4.Addr]*registeredSource),
		archive:  archive,
		adminKey: adminKey,
		obs:      o,
		mStatus:  mStatus,
	}
}

// Obs exposes the service's metric registry (rendered by GET /metrics).
func (r *Registry) Obs() *obs.Registry { return r.obs }

// userGauges publishes a user's live quota consumption. Callers hold r.mu.
func (r *Registry) userGauges(u *User) {
	u.mInFlight.Set(int64(u.inFlight))
	u.mUsedToday.Set(int64(u.usedToday))
}

// newKey mints a random API key.
func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b[:])
}

// AddUser registers a user (admin operation; the real system maintains
// this database manually). The name must be non-empty and held by no
// live user: firehose owner-scoping and the per-user gauges key on it.
func (r *Registry) AddUser(adminKey, name string, maxParallel, maxPerDay int) (*User, error) {
	if adminKey != r.adminKey {
		return nil, ErrUnauthorized
	}
	if name == "" {
		return nil, ErrNoUserName
	}
	if maxParallel <= 0 {
		maxParallel = 4
	}
	if maxPerDay <= 0 {
		maxPerDay = 1000
	}
	u := &User{Name: name, APIKey: newKey(), MaxParallel: maxParallel, MaxPerDay: maxPerDay,
		mInFlight:  r.obs.Gauge(obs.Label("service_user_inflight", "user", name)),
		mUsedToday: r.obs.Gauge(obs.Label("service_user_used_today", "user", name))}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, other := range r.users {
		if other.Name == name {
			return nil, ErrUserExists
		}
	}
	r.users[u.APIKey] = u
	r.userGauges(u)
	return u, nil
}

// Authenticate resolves an API key to a user.
func (r *Registry) Authenticate(key string) (*User, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[key]
	if !ok {
		return nil, ErrUnauthorized
	}
	return u, nil
}

// RegisterSource bootstraps and registers a source for measurements
// (Appx A: "the process starts by checking whether the source can receive
// record route packets", then builds its traceroute atlas).
func (r *Registry) RegisterSource(key string, addr ipv4.Addr, serveAsVP bool) (SourceInfo, error) {
	if _, err := r.Authenticate(key); err != nil {
		return SourceInfo{}, err
	}
	r.mu.Lock()
	if reg, ok := r.sources[addr]; ok {
		info := reg.info
		r.mu.Unlock()
		return info, nil
	}
	r.mu.Unlock()

	src, err := r.backend.RegisterSource(addr)
	if err != nil {
		return SourceInfo{}, fmt.Errorf("%w: %v", ErrBootstrap, err)
	}
	info := SourceInfo{
		Addr:        addr.String(),
		AtlasSize:   src.Atlas.Size(),
		RRReachable: true,
		ServesAsVP:  serveAsVP,
	}
	r.mu.Lock()
	r.sources[addr] = &registeredSource{info: info, src: src}
	r.mu.Unlock()
	return info, nil
}

// Sources lists registered sources in address order.
func (r *Registry) Sources() []SourceInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SourceInfo, 0, len(r.sources))
	for _, s := range r.sourcesLocked() {
		out = append(out, s.info)
	}
	return out
}

// sourcesLocked lists the registered sources in address order, never
// the map's: atlas refreshes draw randomness and probe credit in call
// order, so DailyMaintenance's order decides what the atlases become.
// Callers hold r.mu.
func (r *Registry) sourcesLocked() []*registeredSource {
	out := make([]*registeredSource, 0, len(r.sources))
	for _, addr := range slices.Sorted(maps.Keys(r.sources)) {
		out = append(out, r.sources[addr])
	}
	return out
}

// Measure runs a reverse traceroute from dst to the registered source,
// enforcing the user's quotas, and archives the result. ctx aborts
// in-flight probing: a cancelled or expired context makes the backend
// return promptly with a failed measurement. A panicking backend is
// surfaced as a measurement with status "failed" — and, critically, both
// paths release the user's MaxParallel slot (the slot decrement runs
// under defer, so no code path can leak it).
func (r *Registry) Measure(ctx context.Context, key string, srcAddr, dstAddr ipv4.Addr) (*Measurement, error) {
	u, err := r.Authenticate(key)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	reg, ok := r.sources[srcAddr]
	if !ok {
		r.mu.Unlock()
		return nil, ErrUnknownSource
	}
	if u.usedToday >= u.MaxPerDay || u.inFlight >= u.MaxParallel {
		r.mu.Unlock()
		r.obs.Counter("service_measure_rate_limited_total").Inc()
		return nil, ErrRateLimited
	}
	u.usedToday++
	u.inFlight++
	r.userGauges(u)
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		u.inFlight--
		r.userGauges(u)
		r.mu.Unlock()
	}()

	start := time.Now() //revtr:wallclock service wall-time metric, distinct from virtual probe time
	res := r.safeMeasure(ctx, reg, dstAddr)
	r.obs.Histogram("service_measure_wall_us", nil).Observe(time.Since(start).Microseconds()) //revtr:wallclock service wall-time metric, distinct from virtual probe time
	r.obs.Counter("service_measure_total").Inc()
	if ctx.Err() != nil {
		r.obs.Counter("service_measure_cancelled_total").Inc()
	}

	return r.record(srcAddr, dstAddr, u.Name, res)
}

// buildMeasurement converts a backend result (nil = backend panic)
// into the stored form. The ID is assigned at archive time.
func buildMeasurement(srcAddr, dstAddr ipv4.Addr, res *core.Result) *Measurement {
	m := &Measurement{
		Src: srcAddr.String(),
		Dst: dstAddr.String(),
	}
	if res == nil { // backend panicked
		m.Status = "failed"
		return m
	}
	m.Status = res.Status.String()
	m.DurationUS = res.DurationUS
	m.Probes = res.Probes.Total()
	for _, h := range res.Hops {
		m.Hops = append(m.Hops, MeasuredHop{
			Addr:      h.Addr.String(),
			Technique: h.Tech.String(),
			Suspect:   h.SuspectBefore,
			Spliced:   h.Spliced,
		})
	}
	return m
}

// record is the one tail every finished measurement goes through — sync,
// batch job or NDT hook — so the three books it keeps always agree:
// count it in service_measure_status_total{status}, append it to the
// durable archive (stamping its ID with the log's next sequence number;
// the marshalled bytes in the log are what a restarted server replays,
// bit for bit), and put it on the firehose. user is the requesting
// user's name, empty for NDT.
func (r *Registry) record(srcAddr, dstAddr ipv4.Addr, user string, res *core.Result) (*Measurement, error) {
	m := buildMeasurement(srcAddr, dstAddr, res)
	m.User = user
	r.mStatus[m.Status].Inc()
	_, err := r.archive.Append(func(id uint64) any {
		m.ID = int(id)
		return m
	})
	if err != nil {
		return nil, fmt.Errorf("service: archive: %w", err)
	}
	if b := r.broker.Load(); b != nil {
		b.Publish(stream.Firehose, stream.Event{
			Kind:   stream.KindMeasurement,
			Job:    -1,
			User:   m.User,
			Src:    m.Src,
			Dst:    m.Dst,
			Status: m.Status,
			Result: m,
		})
	}
	return m, nil
}

// safeMeasure runs one backend measurement holding the source's atlas
// lock shared (so DailyMaintenance cannot swap entries mid-measurement)
// and converts a backend panic into a nil result instead of letting it
// unwind through the service.
func (r *Registry) safeMeasure(ctx context.Context, reg *registeredSource, dst ipv4.Addr) (res *core.Result) {
	reg.atlasMu.RLock()
	defer reg.atlasMu.RUnlock()
	defer func() {
		if v := recover(); v != nil {
			r.countBackendPanic()
			res = nil
		}
	}()
	return r.backend.Measure(ctx, reg.src, dst)
}

// countBackendPanic tallies one recovered backend panic (sync request
// or batch job).
func (r *Registry) countBackendPanic() {
	r.obs.Counter("service_backend_panics_total").Inc()
}

// Get retrieves a stored measurement by ID. Records evicted by the
// archive's retention cap report as missing, same as never-assigned IDs.
func (r *Registry) Get(id int) (*Measurement, bool) {
	if id < 0 {
		return nil, false
	}
	var m Measurement
	ok, err := r.archive.Get(uint64(id), &m)
	if err != nil || !ok {
		return nil, false
	}
	return &m, true
}

// ResetDay clears the per-day counters (the real system rolls these at
// midnight) and the batch scheduler's day cache. Batch jobs admitted
// before the reset were charged against the old day's quota at admission
// time and are never re-charged on completion, so in-flight queues carry
// no quota debt into the new day.
func (r *Registry) ResetDay() {
	r.mu.Lock()
	sc := r.sched
	for _, u := range r.users {
		u.usedToday = 0
		r.userGauges(u)
	}
	r.mu.Unlock()
	if sc != nil {
		sc.ResetDay()
	}
}

// DailyMaintenance is the midnight job: refresh every source's traceroute
// atlas (entries intersected during the day survive and are re-measured;
// the rest are replaced with fresh random probes — Appendix D.2's
// Random++ policy) and roll the per-user quotas. Sources refresh in
// address order, so identically seeded deployments end the day with
// identical atlases. Returns per-source atlas sizes after refresh.
func (r *Registry) DailyMaintenance() map[string]int {
	r.mu.Lock()
	srcs := r.sourcesLocked()
	r.mu.Unlock()

	out := make(map[string]int, len(srcs))
	for _, reg := range srcs {
		// Exclusive per-source lock: no measurement may read this atlas
		// while the refresh replaces its entries.
		reg.atlasMu.Lock()
		r.backend.RefreshAtlas(reg.src)
		size := reg.src.Atlas.Size()
		reg.atlasMu.Unlock()

		r.mu.Lock()
		reg.info.AtlasSize = size
		out[reg.info.Addr] = size
		r.mu.Unlock()
		r.obs.Counter("service_atlas_refresh_total").Inc()
	}
	r.ResetDay()
	return out
}

// UsefulEntries reports how many of a source's atlas entries have been
// intersected since the last refresh.
func (r *Registry) UsefulEntries(addr ipv4.Addr) (useful, total int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg, found := r.sources[addr]
	if !found {
		return 0, 0, false
	}
	reg.atlasMu.RLock()
	defer reg.atlasMu.RUnlock()
	for _, e := range reg.src.Atlas.Entries {
		if e.WasUseful() {
			useful++
		}
	}
	return useful, reg.src.Atlas.Size(), true
}

// NDT implements the Appendix A measurement hook: when a client runs an
// NDT speed test against a server that is a registered source, the
// service opportunistically measures the reverse path from the client to
// that server (complementing M-Lab's forward traceroute). Acceptance
// depends on system load, modelled as a simple in-flight cap; rejected
// requests return (nil, nil) — they are best-effort by design.
func (r *Registry) NDT(ctx context.Context, serverAddr, clientAddr ipv4.Addr) (*Measurement, error) {
	r.mu.Lock()
	reg, ok := r.sources[serverAddr]
	if !ok {
		r.mu.Unlock()
		return nil, ErrUnknownSource
	}
	if r.ndtInFlight >= maxNDTInFlight {
		r.mu.Unlock()
		r.obs.Counter("service_ndt_shed_total").Inc()
		return nil, nil // load shedding
	}
	r.ndtInFlight++
	inflight := r.obs.Gauge("service_ndt_inflight")
	inflight.Set(int64(r.ndtInFlight))
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.ndtInFlight--
		inflight.Set(int64(r.ndtInFlight))
		r.mu.Unlock()
	}()

	res := r.safeMeasure(ctx, reg, clientAddr)
	r.obs.Counter("service_ndt_total").Inc()
	return r.record(serverAddr, clientAddr, "", res)
}

// maxNDTInFlight bounds opportunistic NDT-triggered measurements.
const maxNDTInFlight = 8

// Stats summarizes service state.
type Stats struct {
	Users        int `json:"users"`
	Sources      int `json:"sources"`
	Measurements int `json:"measurements"`
}

// Stats returns current counts.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Users: len(r.users), Sources: len(r.sources), Measurements: r.archive.Len()}
}
