// Command bench is the end-to-end benchmark of the served system: per
// workload it builds a fresh deployment wired exactly as
// cmd/revtr-server wires it, puts it behind an in-process HTTP listener
// (loopback TCP — no real link is crossed), drives it from closed-loop
// clients for a fixed time, checks the outputs, and prints every metric
// BENCHMARK.json registers. A second, traced pass over the same
// deployment and a set of sub-second layer drives give the per-layer
// numbers. See README.md.
//
//	go -C bench run . -seed 31
//	go -C bench run . -workload batch-zipf -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
)

// runSeconds is BENCHMARK.json's run_seconds: the timed window the day
// counts in scales were sized for.
const runSeconds = 10

// config is one invocation.
type config struct {
	seed int64
	// seconds stretches or shrinks the frozen day counts: a run measures
	// scale.days × seconds ÷ runSeconds days.
	seconds float64
	// traced adds the traced pass and the layer drives, and with them the
	// per-layer metrics, to the untraced window every run measures.
	traced bool
	sc     scale
	outDir string
}

// report is one workload's result: what the last stdout line carries.
// With tracing off its metrics are the end-to-end ones, with tracing on
// the per-layer ones; the printed report above it has both.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 31, "workload seed: pair order, zipf draws, fault plan")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed window the day counts are scaled to (the benchmark driver passes BENCHMARK.json's run_seconds)")
		trace        = flag.Int("trace", 1, "0: the untraced window only, result line carries the end-to-end metrics; 1: also the traced pass and the layer drives, result line carries the per-layer metrics")
		scaleName    = flag.String("scale", "full", "full (1000 ASes, what BENCHMARK.json measures) or small (150 ASes, seconds)")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, sc: sc, outDir: "out"}

	ran, failed := 0, false
	for i := range workloads {
		wl := &workloads[i]
		if *workloadName != "" && wl.name != *workloadName {
			continue
		}
		ran++
		rep, err := runWorkload(ctx, wl, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			failed = true
		}
		if rep == nil {
			continue // the run itself broke; there is no result to print
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			failed = true
			continue
		}
		fmt.Printf("%s\n", line)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, measures it, checks its outputs and
// prints its report to w. A failed output check is an error next to a
// report that says correct: false; any other error comes alone.
func runWorkload(ctx context.Context, wl *workload, cfg config, w io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// A run builds sc.servers fresh deployments in turn — Build, server
	// wiring, user and source registration (the atlas build) — and gives
	// each an equal share of the days. The last one stays up for the
	// traced pass.
	servers := cfg.sc.servers
	days := max(1, int(float64(cfg.sc.days[wl.name])*cfg.seconds/runSeconds/float64(servers)+0.5))
	var (
		dep    *deployment
		srv    *server
		gen    *generator
		p      *pass
		setupS []float64 // set-up times at nominal box speed
	)
	defer func() {
		if srv != nil {
			srv.close(ctx)
		}
	}()
	for i := 0; i < servers; i++ {
		if srv != nil {
			srv.close(ctx)
			dep, srv = nil, nil
			runtime.GC()
		}
		// The reference kernel is timed before, between and after the
		// two halves of a set-up; its runs are not part of the set-up.
		ref := timeRef()
		start := now()
		if dep, err = buildDeployment(cfg.sc, wl, cfg.seed); err != nil {
			return nil, err
		}
		took := now().Sub(start)
		ref += timeRef()
		start = now()
		if srv, err = serve(ctx, dep, wl, cfg.sc, dep.backend, filepath.Join(dir, "archive"), nil); err != nil {
			return nil, err
		}
		took += now().Sub(start)
		ref += timeRef()
		setupS = append(setupS, took.Seconds()*speedIndex(ref/3))
		if gen == nil {
			gen = newGenerator(wl, cfg.sc, dep, cfg.seed)
		}
		q := runPass(ctx, dep, srv, wl, gen, nil, days, cfg.traced)
		if p == nil {
			p = q
		} else {
			p.add(q)
		}
	}
	srv.close(ctx)
	srv = nil
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "\n== workload %s ==\n%s\n", wl.name, wl.why)
	fmt.Fprintf(w, "seed %d, scale %s (%d ASes, %d sites, %d sources x %d destinations), %d closed-loop clients, in-process httptest server over loopback TCP\n",
		cfg.seed, cfg.sc.name, cfg.sc.ases, cfg.sc.sites, len(dep.srcs), len(dep.dsts), numClients())
	fmt.Fprintf(w, "window: %d days over %d fresh servers, %d requests, %d jobs, %d revtrs executed, %.2f s timed\n",
		len(p.days), servers, p.requests, p.jobs, p.revtrs, p.timed().Seconds())

	values := make(map[string]float64)
	endToEndMetrics(p, medianFloat(setupS), len(dep.d.Sites), values)
	fmt.Fprintf(w, "end-to-end (setup_s: median of %d set-ups; req_p50_ms: %d samples; jobs_per_s: median of %d days)\n",
		len(setupS), len(p.lat), len(p.days))
	printMetrics(w, endToEnd, values)
	fmt.Fprintf(w, "  setup_s, jobs_per_s and req_p50_ms are at nominal box speed: each day and set-up is scaled by the reference kernel timed around it; the box ran at %.3f of nominal (median over the days)\n",
		p.speedIndex())
	fmt.Fprintf(w, "  as timed, unscaled: %.1f jobs/s, req p50 %.4f ms (medians over the days)\n", p.jobsPerSAsTimed(), p.reqP50MSAsTimed())

	reported := endToEnd
	if cfg.traced {
		tp, err := tracedPass(ctx, dep, wl, cfg, gen, p, days, dir, values, w)
		if err != nil {
			return nil, err
		}
		p.checks = append(p.checks, tp.checks...)
		reported = perLayer
	}
	err = p.err()
	if err == nil {
		fmt.Fprintf(w, "checks: all passed (job accounting, pool ledger, hop lists, no failed jobs)\n")
	}

	rep := &report{Correct: err == nil, Attempted: p.jobs, Failed: p.failed, Metrics: make(map[string]metric)}
	for _, d := range reported {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rep, err
}

// endToEndMetrics fills in what a user of the served system sees. The
// three wall-clock metrics are reported at the box's nominal speed: a
// box running at 0.8 of nominal is credited 1/0.8 of the rate it showed
// and 0.8 of the times (refkernel.go).
func endToEndMetrics(p *pass, setupS float64, sites int, v map[string]float64) {
	var mallocs, bytes uint64
	for _, d := range p.days {
		mallocs += d.mallocs
		bytes += d.bytes
	}
	jobs, revtrs := float64(p.jobs), float64(max(p.revtrs, 1))
	v["setup_s"] = setupS
	v["jobs_per_s"] = p.jobsPerS()
	v["req_p50_ms"] = p.reqP50MS()
	v["allocs_per_job"] = float64(mallocs) / jobs
	v["kb_per_job"] = float64(bytes) / jobs / 1e3
	v["probes_per_revtr"] = float64(p.sent.Total()) / revtrs
	v["vtime_mean_s"] = p.obs["engine_measure_virtual_us_sum"] / max(p.obs["engine_measure_virtual_us_count"], 1) / 1e6
	// §5.2.4, as internal/eval/exp_throughput.go computes it: the lesser
	// of the latency bound (10 000 parallel slots) and the probe budget
	// (100 pps per VP site).
	v["sustainable_revtr_per_s"] = min(10000/v["vtime_mean_s"], float64(sites)*100/v["probes_per_revtr"])
	v["complete_frac"] = float64(p.complete) / revtrs
}

// tracedPass runs the traced window and the layer drives over dep, then
// hands everything to layerReport.
func tracedPass(ctx context.Context, dep *deployment, wl *workload, cfg config, gen *generator, p *pass, days int, dir string, v map[string]float64, w io.Writer) (*pass, error) {
	tr := newTracer(dep)
	tb := &tracedBackend{inner: dep.backend, t: tr, sources: make(map[ipv4.Addr]core.Source)}
	srv, err := serve(ctx, dep, wl, cfg.sc, tb, filepath.Join(dir, "traced"), tr.wrap)
	if err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(cfg.outDir, wl.name+".cpu.pprof"))
	if err != nil {
		srv.close(ctx)
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		srv.close(ctx)
		return nil, err
	}
	tp := runPass(ctx, dep, srv, wl, gen, tr, days, false)
	pprof.StopCPUProfile()
	srv.close(ctx)
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, wl.name+".spans.json")); err != nil {
		return nil, err
	}
	an := tr.analyse()
	drives, err := runDrives(ctx, dep, cfg.sc, gen, tb.sources, dir)
	if err != nil {
		return nil, err
	}
	for name, val := range drives {
		v[name] = val
	}
	layerReport(p, tp, an, v, w)
	return tp, nil
}

// ratio is a/b, or 0 where b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerReport fills in the per-layer metrics — counts from the untraced
// window p, spans from the traced pass tp, unit costs already in v from
// the drives — and prints them with both attribution tables.
func layerReport(p, tp *pass, an analysis, v map[string]float64, w io.Writer) {
	jobs, revtrs := float64(p.jobs), float64(max(p.revtrs, 1))
	o := p.obs
	v["service.req_p95_ms"] = float64(quantileInt(p.lat, 0.95)) / 1e6
	v["service.req_p99_ms"] = float64(quantileInt(p.lat, 0.99)) / 1e6
	// Every other request of the traced pass recorded spans.
	v["service.submit_us_per_job"] = ratio(float64(an.byName[spanSubmit].totalNS), float64(tp.jobs)/2) / 1e3
	v["service.http_overhead_us"] = float64(an.httpOverheadNS) / 1e3
	v["service.fail_frac"] = float64(p.failed) / jobs

	v["sched.exec_frac"] = float64(p.revtrs) / jobs
	v["sched.coalesced_frac"] = (o["sched_coalesced_total"] - o["sched_cache_hits_total"]) / jobs
	v["sched.cache_hit_frac"] = o["sched_cache_hits_total"] / jobs
	v["sched.shed_frac"] = o["sched_shed_total"] / jobs
	v["sched.wait_us_p50"] = float64(an.byName[spanWait].p50NS) / 1e3
	v["sched.queue_depth_max"] = float64(p.queueMax)

	v["core.measure_us_p50"] = float64(an.byName[spanMeasure].p50NS) / 1e3
	hits := o["engine_cache_rr_hits_total"] + o["engine_cache_tr_hits_total"]
	v["core.cache_hit_frac"] = ratio(hits, hits+o["engine_cache_rr_misses_total"]+o["engine_cache_tr_misses_total"])
	v["core.spoof_batches_per_revtr"] = o["engine_spoof_batches_total"] / revtrs
	v["core.vp_failovers_per_revtr"] = o["vp_failover_total"] / revtrs
	v["core.dead_vp_hits_per_revtr"] = o["engine_dead_vp_hits_total"] / revtrs

	v["segments.splice_frac"] = o["engine_segment_splices_total"] / revtrs
	v["segments.hits_per_revtr"] = o["engine_segment_hits_total"] / revtrs

	v["probe.requests_per_revtr"] = o["probe_pool_batch_size_sum"] / revtrs
	v["probe.retries_per_revtr"] = o["probe_retries_total"] / revtrs
	v["probe.batch_size_mean"] = ratio(o["probe_pool_batch_size_sum"], o["probe_pool_batch_size_count"])

	v["fabric.hops_per_probe"] = ratio(float64(p.hops), float64(p.injected))
	v["fabric.drop_frac"] = ratio(float64(p.dropped), float64(p.injected))

	v["store.appends_per_job"] = o["store_appends_total"] / jobs
	v["store.wal_bytes_per_job"] = float64(p.walBytes) / jobs
	v["store.compactions"] = o["store_compactions_total"]

	events := o.family("stream_events_total")
	slow := o[`stream_dropped_total{reason="slow-subscriber"}`]
	v["stream.events_per_job"] = events / jobs
	v["stream.dropped_frac"] = ratio(slow, slow+o["stream_delivered_total"])
	v["stream.early_end_frac"] = float64(p.earlyEnds) / float64(p.requests)
	v["stream.deliver_lag_us_p50"] = float64(an.byName[spanDeliver].p50NS) / 1e3

	var cpu time.Duration
	for _, d := range p.days {
		cpu += d.cpu
	}
	cpuPerJob := float64(cpu.Microseconds()) / jobs
	v["runtime.gc_cpu_frac"] = ratio(p.gcCPU, p.totalCPU)
	v["runtime.gc_cycles"] = float64(p.gcCycles)
	v["runtime.heap_peak_mb"] = float64(p.heapPeak) / 1e6
	v["runtime.retained_mb"] = float64(p.retained) / 1e6
	v["runtime.goroutines_peak"] = float64(p.goroutinesPeak)
	v["runtime.cpu_us_per_job"] = cpuPerJob
	v["runtime.speed_index"] = p.speedIndex()
	v["runtime.jobs_per_s_as_timed"] = p.jobsPerSAsTimed()
	v["runtime.req_p50_ms_as_timed"] = p.reqP50MSAsTimed()

	v["trace.residual_frac"] = an.residualFrac
	// A closed-loop client's rate is the inverse of its mean latency, so
	// 1 − traced ÷ untraced jobs_per_s is 1 − untraced ÷ traced latency.
	var allNS int64
	for _, ns := range tp.lat {
		allNS += ns
	}
	untracedMean := ratio(float64(allNS-tp.tracedNS), float64(int64(len(tp.lat))-tp.tracedN))
	v["trace.overhead_frac"] = 1 - ratio(untracedMean, ratio(float64(tp.tracedNS), float64(tp.tracedN)))

	// CPU books: what each layer's counted work would cost at its
	// drive's unit price, against the CPU a job actually took. core's
	// drive is inclusive of probe, measure, fabric and segments below
	// it; those are broken out, indented, for information only — their
	// drives probe from the source and from arbitrary VP sites, colder
	// than the engine, which probes from the VPs closest to each hop,
	// so they can price a revtr above what core's own drive measured.
	type row struct {
		layer    string
		perJob   float64 // units of work per job
		unitUS   float64
		indented bool
	}
	// Probes are priced by kind, in the mix the window actually sent.
	issueUS := (float64(p.sent.Ping)*v["measure.drive_issue_ns.ping"] +
		float64(p.sent.RR+p.sent.SpoofRR)*v["measure.drive_issue_ns.rr"] +
		float64(p.sent.TS+p.sent.SpoofTS)*v["measure.drive_issue_ns.ts"] +
		float64(p.sent.Traceroute)*v["measure.drive_issue_ns.tr"]) / float64(max(p.sent.Total(), 1)) / 1e3
	rows := []row{
		{"sched (submit → terminal)", 1, v["sched.drive_ns_per_job"] / 1e3, false},
		{"core (one blocking revtr, inclusive)", v["sched.exec_frac"], v["core.drive_us_per_revtr"], false},
		{"probe (pool request, b3, inclusive)", v["probe.requests_per_revtr"] * v["sched.exec_frac"], v["probe.drive_do_ns_per_req.b3"] / 1e3, true},
		{"measure (issue one probe, inclusive)", float64(p.sent.Total()) / jobs, issueUS, true},
		{"fabric (hop walked)", float64(p.hops) / jobs, v["fabric.drive_inject_ns_per_hop"] / 1e3, true},
		{"segments (lookup + publish)", v["sched.exec_frac"], (v["segments.drive_lookup_ns"] + v["segments.drive_publish_ns"]) / 1e3, true},
		{"store (append)", v["store.appends_per_job"], v["store.drive_append_us"], false},
		{"stream (publish, 1 subscriber)", v["stream.events_per_job"], v["stream.drive_publish_ns.sub1"] / 1e3, false},
	}
	var attributed float64
	for _, r := range rows {
		if !r.indented {
			attributed += r.perJob * r.unitUS
		}
	}
	v["attrib.residual_cpu_frac"] = 1 - ratio(attributed, cpuPerJob)

	fmt.Fprintf(w, "per-layer (counts from the untraced window; spans from the %d traced requests of a %.1f s pass in which every other request is traced; unit costs from layer drives)\n",
		an.byName[spanClient].count, tp.timed().Seconds())
	printMetrics(w, perLayer, v)

	fmt.Fprintf(w, "time attribution, traced pass (self = duration minus the part child spans cover)\n")
	fmt.Fprintf(w, "  %-16s %9s %12s %12s %8s\n", "span", "count", "p50_us", "self_ms", "share")
	var selfTotal int64
	for _, st := range an.byName {
		selfTotal += st.selfNS
	}
	for _, name := range []string{spanClient, spanSubmit, spanWait, spanMeasure, spanDeliver} {
		st := an.byName[name]
		fmt.Fprintf(w, "  %-16s %9d %12.1f %12.2f %7.1f%%\n", name, st.count, float64(st.p50NS)/1e3,
			float64(st.selfNS)/1e6, 100*ratio(float64(st.selfNS), float64(selfTotal)))
	}
	fmt.Fprintf(w, "  residual: %.1f%% of client.req time is covered by no child span (trace.residual_frac)\n", 100*an.residualFrac)

	fmt.Fprintf(w, "cpu attribution per job (count x drive unit cost, against getrusage)\n")
	fmt.Fprintf(w, "  %-42s %10s %10s %10s %8s\n", "layer", "count/job", "unit_us", "us/job", "share")
	for _, r := range rows {
		name := r.layer
		if r.indented {
			name = "  " + name
		}
		fmt.Fprintf(w, "  %-42s %10.3f %10.3f %10.2f %7.1f%%\n", name, r.perJob, r.unitUS, r.perJob*r.unitUS,
			100*ratio(r.perJob*r.unitUS, cpuPerJob))
	}
	fmt.Fprintf(w, "  %-42s %10s %10s %10.2f %7.1f%%\n", "measured (runtime.cpu_us_per_job)", "", "", cpuPerJob, 100.0)
	fmt.Fprintf(w, "  residual: %.1f%% of a job's CPU is outside the unindented rows — service JSON, HTTP, the client generator, GC (attrib.residual_cpu_frac)\n",
		100*v["attrib.residual_cpu_frac"])
}

// printMetrics prints the defined metrics that have a value, by name
// with their unit.
func printMetrics(w io.Writer, defs []metricDef, v map[string]float64) {
	for _, d := range defs {
		if val, ok := v[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, val, d.unit)
		}
	}
}
