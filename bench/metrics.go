package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"revtr/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names with the same units; bench_test.go holds the two sets equal.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the served system sees. Bounds and
// better-directions live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"allocs_per_job", "1"},
	{"kb_per_job", "KB"},
	{"probes_per_revtr", "1"},
	{"vtime_mean_s", "s"},
	{"sustainable_revtr_per_s", "1/s"},
	{"complete_frac", "ratio"},
}

// perLayer lists the single-layer metrics, layer by layer. README.md
// says which end-to-end metric each should move on which workload.
var perLayer = []metricDef{
	{"service.req_p95_ms", "ms"},
	{"service.req_p99_ms", "ms"},
	{"service.submit_us_per_job", "us"},
	{"service.http_overhead_us", "us"},
	{"service.fail_frac", "ratio"},

	{"sched.exec_frac", "ratio"},
	{"sched.coalesced_frac", "ratio"},
	{"sched.cache_hit_frac", "ratio"},
	{"sched.shed_frac", "ratio"},
	{"sched.wait_us_p50", "us"},
	{"sched.queue_depth_max", "count"},
	{"sched.drive_ns_per_job", "ns"},

	{"core.measure_us_p50", "us"},
	{"core.drive_us_per_revtr", "us"},
	{"core.cache_hit_frac", "ratio"},
	{"core.spoof_batches_per_revtr", "1"},
	{"core.vp_failovers_per_revtr", "1"},
	{"core.dead_vp_hits_per_revtr", "1"},

	{"segments.splice_frac", "ratio"},
	{"segments.hits_per_revtr", "1"},
	{"segments.drive_lookup_ns", "ns"},
	{"segments.drive_publish_ns", "ns"},

	{"probe.requests_per_revtr", "1"},
	{"probe.retries_per_revtr", "1"},
	{"probe.batch_size_mean", "1"},
	{"probe.drive_do_ns_per_req.b1", "ns"},
	{"probe.drive_do_ns_per_req.b3", "ns"},
	{"probe.drive_do_ns_per_req.b32", "ns"},
	{"probe.drive_go_ns_per_req", "ns"},

	{"measure.drive_issue_ns.ping", "ns"},
	{"measure.drive_issue_ns.rr", "ns"},
	{"measure.drive_issue_ns.ts", "ns"},
	{"measure.drive_issue_ns.tr", "ns"},
	{"measure.drive_issue_allocs", "1"},

	{"fabric.hops_per_probe", "1"},
	{"fabric.drop_frac", "ratio"},
	{"fabric.drive_inject_ns_per_hop", "ns"},
	{"fabric.drive_inject_allocs_per_pkt", "1"},

	{"store.appends_per_job", "1"},
	{"store.wal_bytes_per_job", "B"},
	{"store.compactions", "count"},
	{"store.drive_append_us", "us"},
	{"store.drive_get_us", "us"},

	{"stream.events_per_job", "1"},
	{"stream.dropped_frac", "ratio"},
	{"stream.early_end_frac", "ratio"},
	{"stream.deliver_lag_us_p50", "us"},
	{"stream.drive_publish_ns.sub0", "ns"},
	{"stream.drive_publish_ns.sub1", "ns"},
	{"stream.drive_publish_ns.sub100", "ns"},

	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.retained_mb", "MB"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.cpu_us_per_job", "us"},
	{"runtime.speed_index", "ratio"},
	{"runtime.jobs_per_s_as_timed", "1/s"},
	{"runtime.req_p50_ms_as_timed", "ms"},

	{"trace.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"attrib.residual_cpu_frac", "ratio"},
}

// obsSnap is a point-in-time copy of an obs.Registry, taken through its
// public text rendering: series name (labels included) → value.
type obsSnap map[string]float64

func snapshot(r *obs.Registry) obsSnap {
	var buf bytes.Buffer
	_ = r.WriteText(&buf) // a bytes.Buffer never fails a write
	s := make(obsSnap)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// family sums every series of s whose name is base or base{...}.
func (s obsSnap) family(base string) float64 {
	var sum float64
	for name, v := range s {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}

// sub returns s minus earlier, series by series.
func (s obsSnap) sub(earlier obsSnap) obsSnap {
	d := make(obsSnap, len(s))
	for name, v := range s {
		d[name] = v - earlier[name]
	}
	return d
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}

// sampler tracks peaks a before/after snapshot cannot see: goroutines,
// live heap bytes, and the scheduler's queue depth.
type sampler struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	goroutines int
	heapBytes  uint64
	queueMax   int
}

func startSampler(queueDepth func() int) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.goroutines = max(s.goroutines, runtime.NumGoroutine())
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 {
				s.heapBytes = max(s.heapBytes, heap[0].Value.Uint64())
			}
			s.queueMax = max(s.queueMax, queueDepth())
		}
	}()
	return s
}

// finish stops the sampler; its peaks are safe to read afterwards.
func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

func medianInt(v []int64) int64 { return quantileInt(v, 0.5) }

// quantileInt sorts v in place and returns its q-quantile (nearest rank).
func quantileInt(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[min(len(v)-1, int(q*float64(len(v))))]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
