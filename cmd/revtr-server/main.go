// Command revtr-server runs the open Reverse Traceroute service
// (Appendix A) over a freshly generated simulated Internet: it builds the
// deployment (topology, vantage points, ingress survey), then serves the
// REST API from a hardened http.Server (connection timeouts, graceful
// shutdown on SIGINT/SIGTERM) with observability built in:
//
//	GET /metrics   engine + service counters, gauges, latency histograms
//	GET /healthz   plain-text liveness probe
//
// The batch scheduler (POST /api/v1/batch) and the event streams are
// always on, at sched.Options' and stream.Options' defaults. With
// -store-dir the measurement archive is durable: a restarted server
// replays its segment files and serves the identical pre-crash
// measurement set under the same IDs.
//
//	revtr-server -listen :8080 -ases 1000 -admin-key secret -store-dir /var/lib/revtr
//
// Interact with it using revtr-client or plain curl:
//
//	curl -XPOST -H 'X-Admin-Key: secret' localhost:8080/api/v1/users \
//	     -d '{"name":"alice"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "listen address")
		ases         = flag.Int("ases", 1000, "ASes in the simulated Internet")
		seed         = flag.Int64("seed", 1, "simulation seed")
		adminKey     = flag.String("admin-key", "admin", "admin API key for user management")
		sites        = flag.Int("sites", 30, "vantage point sites")
		faultSpec    = flag.String("faults", "", "fault plan spec, e.g. loss=0.01,icmp-frac=0.3,icmp-pass=0.5 (see internal/netsim/faults)")
		faultVPOut   = flag.Int("fault-vp-outages", 0, "blackout this many spoof-capable vantage point sites from t=0")
		segmentTTL   = flag.Duration("segment-ttl", 0, "memoize reverse-path segments across measurements for this long in virtual time (0 = off)")
		retries      = flag.Int("probe-retries", 0, "re-issue unanswered probes up to this many times (virtual-time backoff from 50ms, doubling)")
		storeDir     = flag.String("store-dir", "", "durable measurement store directory (empty = memory-only; measurements vanish on restart)")
		storeSync    = flag.Bool("store-sync", false, "fsync the measurement log after every append")
		storeRecMax  = flag.Int("store-max-records", 0, "cap the live measurement set, dropping oldest (0 = unbounded)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (bulk measurements take a while; event streams are exempt)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	)
	flag.Parse()

	cfg := revtr.DefaultConfig(*ases)
	if err := cfg.Topology.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	log.Printf("building simulated Internet (%d ASes, %d sites)...", *ases, *sites)
	cfg.Seed = *seed
	cfg.Topology.Seed = *seed
	cfg.Sites = *sites
	d := revtr.Build(cfg)
	log.Printf("topology: %s", d.Topo.Stats())
	log.Printf("background probes consumed: %d", d.Prober.Count.Total())

	plan, err := d.InjectFaults(*faultSpec, *faultVPOut, 0, *retries)
	if err != nil {
		log.Fatalf("fault plan: %v", err)
	}
	if plan.Enabled() {
		log.Printf("fault plan active: %s", plan)
	}

	engineOpts := core.Revtr20Options()
	var segStore *segments.Store
	if *segmentTTL > 0 {
		segStore = segments.New(segments.Options{TTLUS: segmentTTL.Microseconds()})
		engineOpts.SegmentStore = segStore
		log.Printf("segment memoization: ttl %s, max %d segments", *segmentTTL, segments.DefaultMaxEntries)
	}
	backend := service.NewDeploymentBackendOptions(d, engineOpts)
	var reg *service.Registry
	if *storeDir != "" {
		archive, err := store.Open(*storeDir, store.Options{
			Sync:       *storeSync,
			MaxRecords: *storeRecMax,
		})
		if err != nil {
			log.Fatalf("measurement store: %v", err)
		}
		defer archive.Close()
		if n := archive.Len(); n > 0 {
			log.Printf("measurement store: recovered %d measurements from %s (next id %d)",
				n, *storeDir, archive.NextID())
		}
		reg = service.NewRegistryWithArchive(backend, *adminKey, archive)
	} else {
		reg = service.NewRegistry(backend, *adminKey)
	}
	// Engine metrics land in the same registry the service renders on
	// GET /metrics, so per-stage engine accounting is live from request 1.
	backend.Engine.SetMetrics(core.NewMetrics(reg.Obs()))
	segStore.SetObs(reg.Obs())
	// Pool metrics (in-flight probes, batch sizes/latencies) land next to
	// the engine's on GET /metrics, as do fault-injection tallies.
	d.Pool.SetObs(reg.Obs())
	plan.SetObs(reg.Obs())
	api := service.NewAPI(reg)

	// Streaming before EnableBatch: the first batch job's first event
	// already has a broker to land on.
	broker := reg.EnableStream(stream.Options{})
	log.Printf("streaming: /api/v1/batch/{id}/events + /api/v1/firehose")

	// The batch scheduler dispatches until the shutdown context fires;
	// Drain below waits for the last in-flight measurements.
	batchCtx, stopBatch := context.WithCancel(context.Background())
	defer stopBatch()
	sc := reg.EnableBatch(batchCtx, sched.Options{})

	// Print a few example destination addresses so users can try the API
	// without reading the topology dump.
	hosts := d.OnePerPrefix()
	n := 5
	if len(hosts) < n {
		n = len(hosts)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("example destination %d: %s (AS%d)\n", i, hosts[i].Addr, hosts[i].AS)
	}
	fmt.Printf("example source host:   %s\n", d.PickSourceHost(0).Addr)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (metrics on /metrics, liveness on /healthz)", *listen)

	select {
	case err := <-errc:
		log.Fatalf("server: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("signal received, draining connections (max %s)...", *drainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// End every event stream before srv.Shutdown: streaming handlers
		// hold their connections open until their subscription terminates,
		// and Shutdown waits for active connections.
		broker.Shutdown()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("server: %v", err)
		}
		stopBatch()
		if err := sc.Drain(shCtx); err != nil {
			log.Printf("batch drain: %v", err)
		}
		st := reg.Stats()
		log.Printf("drained: %d users, %d sources, %d measurements archived",
			st.Users, st.Sources, st.Measurements)
	}
}
