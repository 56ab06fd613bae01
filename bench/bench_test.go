package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"revtr/internal/netsim/ipv4"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test reads.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmallRunMatchesBenchmarkJSON runs every workload at small scale —
// untraced window, traced pass and layer drives — and holds the
// benchmark to its registration: the workloads and the metrics it
// prints are exactly those BENCHMARK.json lists, with the same units,
// and every output check passes. It keeps the benchmark from rotting
// between the issues that use it.
func TestSmallRunMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg benchmarkJSON
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if reg.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %v, the day counts are sized for %v", reg.RunSeconds, runSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var registered []string
	for _, w := range reg.Workloads {
		registered = append(registered, w.Name)
		i := slices.IndexFunc(workloads, func(wl workload) bool { return wl.name == w.Name })
		if i < 0 {
			continue // reported by the set comparison below
		}
		if workloads[i].why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why=%q, the benchmark prints %q", w.Name, w.Why, workloads[i].why)
		}
	}
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	sort.Strings(registered)
	sort.Strings(ours)
	if !slices.Equal(registered, ours) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the benchmark runs %v", registered, ours)
	}

	units := make(map[string]string)
	for _, m := range append(reg.EndToEnd, reg.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if _, dup := units[m.Name]; dup {
			t.Errorf("metric %q is registered twice", m.Name)
		}
		units[m.Name] = m.Unit
	}

	cfg := config{seed: 31, seconds: runSeconds, traced: true, sc: scales["small"], outDir: t.TempDir()}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			if !nameRE.MatchString(wl.name) {
				t.Errorf("workload name %q does not match %s", wl.name, nameRE)
			}
			var out bytes.Buffer
			rep, err := runWorkload(context.Background(), wl, cfg, &out)
			if err != nil {
				t.Fatalf("output checks: %v\n%s", err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("report: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			// The printed report names every metric; the result line of a
			// traced run carries the per-layer ones.
			var printed []string
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if strings.HasPrefix(line, "  ") && len(f) == 3 && nameRE.MatchString(f[0]) {
					printed = append(printed, f[0])
					if want, ok := units[f[0]]; ok && want != f[2] {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", f[0], f[2], want)
					}
				}
			}
			var want, wantLine, inLine []string
			for name := range units {
				want = append(want, name)
			}
			for _, m := range reg.PerLayer {
				wantLine = append(wantLine, m.Name)
			}
			for name := range rep.Metrics {
				inLine = append(inLine, name)
			}
			for _, pair := range [][2][]string{{printed, want}, {inLine, wantLine}} {
				got, want := pair[0], pair[1]
				sort.Strings(got)
				sort.Strings(want)
				if !slices.Equal(got, want) {
					t.Errorf("metrics printed and metrics registered differ:\n printed only: %v\n registered only: %v",
						minus(got, want), minus(want, got))
				}
			}
			for _, f := range []string{".spans.json", ".cpu.pprof"} {
				if st, err := os.Stat(cfg.outDir + "/" + wl.name + f); err != nil || st.Size() == 0 {
					t.Errorf("traced pass left no %s%s: %v", wl.name, f, err)
				}
			}
		})
	}

	// An untraced run's result line carries the end-to-end metrics.
	cfg.traced = false
	rep, err := runWorkload(context.Background(), &workloads[0], cfg, io.Discard)
	if err != nil {
		t.Fatalf("untraced run: %v", err)
	}
	for _, m := range reg.EndToEnd {
		if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("untraced result line: %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
		}
	}
	if len(rep.Metrics) != len(reg.EndToEnd) {
		t.Errorf("untraced result line has %d metrics, BENCHMARK.json lists %d end-to-end ones", len(rep.Metrics), len(reg.EndToEnd))
	}
}

// minus returns the elements of a that are not in b.
func minus(a, b []string) []string {
	var out []string
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func TestScanInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		ok   bool
	}{
		{`[{"id":1234,"src":"1.2.3.4"}]`, 1234, true},
		{`{"kind":"state","job":0,"state":"done"}`, 0, false},
		{`{"id":}`, 0, false},
		{`{}`, 0, false},
	} {
		got, ok := scanInt([]byte(c.in), markID)
		if got != c.want || ok != c.ok {
			t.Errorf("scanInt(%s) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	if job, ok := scanInt([]byte(`{"id":7,"kind":"state","job":31,"state":"done"}`), markJob); !ok || job != 31 {
		t.Errorf("job index: got %d, %v", job, ok)
	}
}

// TestSpanSelfTime pins the attribution arithmetic: self time is a
// span's duration minus the union of its children clipped to it, and
// the residual is request time no descendant covers.
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: spanClient, ID: 1, Req: 1, Start: 0, End: 100},
		{Name: spanSubmit, ID: 2, Parent: 1, Req: 1, Start: 10, End: 30},
		{Name: spanWait, ID: 3, Parent: 2, Req: 1, Start: 10, End: 40},    // outlives its parent
		{Name: spanMeasure, ID: 4, Parent: 3, Req: 1, Start: 40, End: 70}, // starts where its parent ends
		{Name: spanMeasure, ID: 5, Parent: 3, Req: 1, Start: 35, End: 60}, // overlaps its sibling
	}
	an := tr.analyse()
	for name, want := range map[string]int64{
		spanClient:  80, // 100 minus submit's 20
		spanSubmit:  0,  // wait covers all of it
		spanWait:    25, // 30 minus the 5 the second measure overlaps
		spanMeasure: 55,
	} {
		if got := an.byName[name].selfNS; got != want {
			t.Errorf("%s self time = %d, want %d", name, got, want)
		}
	}
	// Descendants cover [10,70) of [0,100).
	if an.residualFrac != 0.4 {
		t.Errorf("residual = %v, want 0.4", an.residualFrac)
	}
	// The measure spans are open over [35,70): 65 of the request is overhead.
	if an.httpOverheadNS != 65 {
		t.Errorf("http overhead = %d, want 65", an.httpOverheadNS)
	}
}

// TestEnterBeforeSubmit: a traced request claims its pairs before its
// POST reaches the handler wrapper. A backend call for such a pair in
// between belongs to an untraced request and must record nothing.
func TestEnterBeforeSubmit(t *testing.T) {
	src, dst := ipv4.Addr(1), ipv4.Addr(2)
	tr := &tracer{epoch: now(), index: map[[2]ipv4.Addr]int32{{src, dst}: 0},
		jobs: make(map[int32]*jobTrace), submits: make(map[int64]submitInfo)}
	req := tr.beginRequest([]int32{0})
	tr.enter(src, dst, true)()
	if len(tr.spans) != 0 {
		t.Fatalf("backend call before the request's submit recorded %+v", tr.spans)
	}
	tr.submits[req] = submitInfo{id: tr.id(), start: tr.clock()}
	tr.enter(src, dst, true)()
	if len(tr.spans) != 2 || tr.spans[0].Name != spanWait || tr.spans[1].Name != spanMeasure || tr.spans[0].Parent == 0 {
		t.Fatalf("backend call after the submit recorded %+v, want sched.wait then core.measure", tr.spans)
	}
}

// TestRefKernelAllocatesNothing pins what keeps the speed index apart
// from the system under test: the kernel leaves the collector no work.
func TestRefKernelAllocatesNothing(t *testing.T) {
	refKernel() // the first run allocates the working set
	if n := testing.AllocsPerRun(3, refKernel); n != 0 {
		t.Errorf("refKernel allocates %v objects per run, want 0", n)
	}
}
