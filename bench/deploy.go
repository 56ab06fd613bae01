package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"time"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/detrand"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

const adminKey = "bench-admin"

// topologySeed fixes the simulated Internet. The workload seed moves
// which pairs are asked for and in what order, the fault plan and the
// zipf draws; the topology stays put so that probes_per_revtr and the
// other count metrics compare across seeds within their 2% bounds
// (README, "What the seed feeds").
const topologySeed = 31

// deployment is everything below the HTTP tier: the simulated Internet,
// the engine-level knobs the workload sets (fault plan, retry policy,
// segment store), and the measurement universe drawn from it. One is
// built per workload and shared by the untraced and the traced server.
type deployment struct {
	d       *revtr.Deployment
	plan    *faults.Plan
	seg     *segments.Store
	backend *service.DeploymentBackend
	srcs    []ipv4.Addr // filled by the first server that registers sources
	dsts    []ipv4.Addr
}

// buildDeployment mirrors cmd/revtr-server/main.go up to the backend:
// Build with the flag defaults, faults and retries attached after Build
// (atlas and survey see a healthy network), segment store threaded into
// the engine options.
func buildDeployment(sc scale, wl *workload, seed int64) (*deployment, error) {
	cfg := revtr.DefaultConfig(sc.ases)
	cfg.Seed = topologySeed
	cfg.Topology.Seed = topologySeed
	cfg.Sites = sc.sites
	d := revtr.Build(cfg)

	plan, err := faults.Parse(wl.faults)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	if plan.Enabled() || wl.blackouts > 0 {
		plan.Seed = uint64(detrand.Seed(seed, "bench/faults"))
	}
	for i, n := len(d.SiteAgents)-1, 0; i >= 0 && n < wl.blackouts; i-- {
		if d.SiteAgents[i].CanSpoof {
			plan.AddBlackout(d.SiteAgents[i].Addr, 0, 0)
			n++
		}
	}
	if plan.Enabled() {
		d.Fabric.SetFaults(plan)
	}
	if wl.retries > 0 {
		d.Pool.SetRetry(probe.RetryPolicy{Max: wl.retries})
	}

	opts := core.Revtr20Options()
	var seg *segments.Store
	if wl.segmentTTL > 0 {
		seg = segments.New(segments.Options{TTLUS: wl.segmentTTL.Microseconds()})
		opts.SegmentStore = seg
	}
	dep := &deployment{d: d, plan: plan, seg: seg, backend: service.NewDeploymentBackendOptions(d, opts)}
	for _, h := range d.OnePerPrefix() {
		dep.dsts = append(dep.dsts, h.Addr)
	}
	return dep, nil
}

// server is one registry behind an in-process HTTP listener (loopback
// TCP, not a real link), wired as cmd/revtr-server wires it.
type server struct {
	reg     *service.Registry
	archive *store.Log
	sched   *sched.Scheduler
	broker  *stream.Broker
	ts      *httptest.Server
	stop    context.CancelFunc
	dir     string
	keys    []string // API keys, one per workload user
}

// serve opens a durable archive under dir (fsync off, 65536 records),
// attaches every metric family to the registry, enables streaming
// before batch, and registers the workload's users and sources over
// HTTP. backend and wrap let the traced pass interpose its decorators;
// nil wrap serves the API handler bare.
func serve(ctx context.Context, dep *deployment, wl *workload, sc scale, backend service.Backend, dir string, wrap func(http.Handler) http.Handler) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	archive, err := store.Open(dir, store.Options{MaxRecords: 65536})
	if err != nil {
		return nil, fmt.Errorf("measurement store: %w", err)
	}
	reg := service.NewRegistryWithArchive(backend, adminKey, archive)
	dep.backend.Engine.SetMetrics(core.NewMetrics(reg.Obs()))
	dep.seg.SetObs(reg.Obs())
	dep.d.Pool.SetObs(reg.Obs())
	dep.plan.SetObs(reg.Obs())
	api := service.NewAPI(reg)

	broker := reg.EnableStream(stream.Options{})
	batchCtx, stop := context.WithCancel(ctx)
	schd := reg.EnableBatch(batchCtx, sched.Options{Workers: 4, QueueCap: 1024, Quantum: 4, MaxInFlight: 4096})

	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	s := &server{reg: reg, archive: archive, sched: schd, broker: broker,
		ts: httptest.NewServer(h), stop: stop, dir: dir}
	if err := s.register(ctx, dep, wl, sc); err != nil {
		s.close(ctx)
		return nil, err
	}
	return s, nil
}

// register creates the workload's users and registers its sources, the
// Appendix A bootstrap (RR reachability check + atlas build) included.
// The first server of a deployment picks the sources: hosts spread over
// the topology, skipping any the bootstrap refuses.
func (s *server) register(ctx context.Context, dep *deployment, wl *workload, sc scale) error {
	hc := s.ts.Client()
	for i := 0; i < wl.users; i++ {
		var u service.User
		body := fmt.Sprintf(`{"name":"user%d","maxParallel":64,"maxPerDay":1000000000}`, i)
		code, err := postJSON(ctx, hc, s.ts.URL+"/api/v1/users", "X-Admin-Key", adminKey, body, &u)
		if err != nil || code != http.StatusCreated {
			return fmt.Errorf("create user: status %d: %v", code, err)
		}
		s.keys = append(s.keys, u.APIKey)
	}
	addSource := func(a ipv4.Addr) (bool, error) {
		code, err := postJSON(ctx, hc, s.ts.URL+"/api/v1/sources", "X-API-Key", s.keys[0],
			fmt.Sprintf(`{"addr":%q}`, a.String()), nil)
		if err != nil {
			return false, err
		}
		return code == http.StatusCreated, nil
	}
	if len(dep.srcs) > 0 {
		for _, a := range dep.srcs {
			if ok, err := addSource(a); err != nil || !ok {
				return fmt.Errorf("re-register source %s: ok=%v err=%v", a, ok, err)
			}
		}
		return nil
	}
	const stride = 17 // spreads the sources over ASes; hosts of one AS are adjacent
	for i := 0; len(dep.srcs) < sc.sources && i < 64; i++ {
		a := dep.d.PickSourceHost(i * stride).Addr
		ok, err := addSource(a)
		if err != nil {
			return err
		}
		if ok {
			dep.srcs = append(dep.srcs, a)
		}
	}
	if len(dep.srcs) < sc.sources {
		return fmt.Errorf("only %d of %d sources bootstrapped", len(dep.srcs), sc.sources)
	}
	// A source is never its own destination.
	kept := dep.dsts[:0]
	for _, d := range dep.dsts {
		if !slices.Contains(dep.srcs, d) {
			kept = append(kept, d)
		}
	}
	dep.dsts = kept
	return nil
}

// close ends the server in revtr-server's drain order: streams, HTTP,
// scheduler, archive. The archive directory is removed.
func (s *server) close(ctx context.Context) {
	s.broker.Shutdown()
	s.ts.Close()
	s.stop()
	dctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	_ = s.sched.Drain(dctx) // a drain timeout only delays exit; the run's checks already passed or failed
	cancel()
	_ = s.archive.Close() // nothing reads the archive after this point
	_ = os.RemoveAll(s.dir)
}

// postJSON is the setup-path HTTP helper (user and source creation).
func postJSON(ctx context.Context, hc *http.Client, url, hdr, key, body string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set(hdr, key)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}
