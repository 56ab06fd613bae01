// Package obs is the in-process observability substrate: lock-free
// counters, gauges, and fixed-bucket latency histograms built on
// sync/atomic, collected in a Registry that renders a Prometheus-style
// text exposition. The paper sizes revtr 2.0 from latency and probe-budget
// accounting (§5.2.4: 173 revtrs/s from per-stage timings); this package
// is how the reproduction produces the same accounting about itself.
//
// All metric operations are wait-free after creation; the Registry mutex
// is only taken to register a new name, so instrumented hot paths never
// contend. Every metric type is safe to use through a nil pointer (a
// no-op), which lets instrumented code run unconditionally whether or not
// a registry was attached.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets of inclusive upper
// bounds, plus an implicit +Inf bucket, and tracks sum and count.
// Observe is wait-free.
type Histogram struct {
	bounds []int64         // sorted inclusive upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Uint64
}

// DurationBucketsUS is the default latency bucket layout in microseconds:
// 1ms to 2min, spanning cached sub-millisecond hits through measurements
// with several spoofed batches short of a reply, 10 s each (§5.2.4).
var DurationBucketsUS = []int64{
	1_000, 10_000, 100_000, 1_000_000, 5_000_000,
	10_000_000, 30_000_000, 60_000_000, 120_000_000,
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count reports how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of metrics. Metric accessors get or
// create by name, so independent subsystems that ask for the same name
// share one metric (campaign workers sharing stage counters, for
// example).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Safe on a nil registry (returns a nil, no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (nil bounds = DurationBucketsUS).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DurationBucketsUS
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

var labelEscaper = strings.NewReplacer(`"`, `\"`, `\`, `\\`)

// Label renders name{k1="v1",k2="v2"} from alternating key/value pairs,
// for per-entity metric names (e.g. per-user quota gauges): one
// allocation unless a value needs escaping.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	n := len(name) + 2
	for i := 0; i+1 < len(kv); i += 2 {
		n += len(kv[i]) + len(kv[i+1]) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabels separates a (possibly labelled) metric name into its base
// name and label block: `m{a="b"}` → (`m`, `a="b"`).
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// series renders base+suffix with the given label block plus an optional
// extra label appended: series("m", "_bucket", `a="b"`, `le="10"`) →
// `m_bucket{a="b",le="10"}`.
func series(base, suffix, labels, extra string) string {
	name := base + suffix
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		return name
	}
	return name + "{" + all + "}"
}

// WriteText renders every metric in the Prometheus text format, sorted by
// name for stable output. Histograms render cumulative buckets plus _sum
// and _count series.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type hsnap struct {
		name string
		h    *Histogram
	}
	counters := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g.Value()
	}
	var hists []hsnap
	for n, h := range r.hists {
		hists = append(hists, hsnap{n, h})
	}
	r.mu.Unlock()

	var lines []string
	for n, v := range counters {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, v := range gauges {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for _, hs := range hists {
		base, labels := splitLabels(hs.name)
		var cum uint64
		for i, bound := range hs.h.bounds {
			cum += hs.h.counts[i].Load()
			lines = append(lines, fmt.Sprintf("%s %d",
				series(base, "_bucket", labels, fmt.Sprintf(`le="%d"`, bound)), cum))
		}
		cum += hs.h.counts[len(hs.h.bounds)].Load()
		lines = append(lines, fmt.Sprintf("%s %d", series(base, "_bucket", labels, `le="+Inf"`), cum))
		lines = append(lines, fmt.Sprintf("%s %d", series(base, "_sum", labels, ""), hs.h.Sum()))
		lines = append(lines, fmt.Sprintf("%s %d", series(base, "_count", labels, ""), hs.h.Count()))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l+"\n"); err != nil {
			return err
		}
	}
	return nil
}
