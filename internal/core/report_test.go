package core_test

// The engine's reporting contract (DESIGN.md §7): each transition of a
// measurement is reported once, by the one machine helper that owns its
// result change, its counter and its event — so the three views an
// operator has (Result, metrics, event stream) and the debug log, which
// is a second consumer of the same events, cannot disagree.

import (
	"context"
	"log/slog"
	"sync"
	"testing"

	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/probe"
	"revtr/internal/stream"
)

// logLine is what the debug logger saw of one event.
type logLine struct {
	kind string
	seq  uint64
}

// lineHandler is a slog.Handler that keeps (message, seq) per record.
type lineHandler struct {
	mu    sync.Mutex
	lines []logLine
}

func (h *lineHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *lineHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *lineHandler) WithGroup(string) slog.Handler            { return h }
func (h *lineHandler) Handle(_ context.Context, r slog.Record) error {
	l := logLine{kind: r.Message}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "seq" {
			l.seq = a.Value.Uint64()
		}
		return true
	})
	h.mu.Lock()
	h.lines = append(h.lines, l)
	h.mu.Unlock()
	return nil
}

func TestTransitionsReportedOnce(t *testing.T) {
	drives := []struct {
		name    string
		measure func(*core.Engine, context.Context, core.Source, ipv4.Addr, func(stream.Event)) *core.Result
	}{
		{"blocking", func(e *core.Engine, ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event)) *core.Result {
			return e.MeasureReverseStream(ctx, src, dst, sink)
		}},
		{"async", func(e *core.Engine, ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event)) *core.Result {
			out := make(chan *core.Result, 1)
			e.MeasureAsyncStream(ctx, src, dst, sink, func(r *core.Result) { out <- r })
			return <-out
		}},
	}
	for _, drive := range drives {
		t.Run(drive.name, func(t *testing.T) {
			// A seeded fault world: lossy links, rate-limited routers, and
			// every other spoof-capable site blacked out, so failovers,
			// fallbacks, aborts and failures all occur.
			c := newChaosEnv(t, 8, 12)
			plan := &faults.Plan{Seed: 8, LinkLoss: 0.02, ICMPFrac: 0.3, ICMPPass: 0.5}
			n := 0
			for _, site := range c.env.Sites {
				if site.CanSpoof && site.Addr != c.src.Agent.Addr {
					if n%2 == 0 {
						plan.AddBlackout(site.Addr, 0, 0)
					}
					n++
				}
			}
			c.env.Fabric.SetFaults(plan)

			o := core.Revtr20Options()
			o.UseCache = false // cached stages skip probing, and so skip transitions
			o.SegmentStore = segments.New(segments.Options{TTLUS: 1 << 60})
			// Every engine below records into the same three consumers.
			reg := obs.New()
			logged := &lineHandler{}
			engine := func(o core.Options) *core.Engine {
				eng, _ := c.engineOpts(4, probe.RetryPolicy{Max: 1}, o)
				eng.SetMetrics(core.NewMetrics(reg))
				eng.SetLogger(slog.New(logged))
				return eng
			}

			cancelled, cancel := context.WithCancel(context.Background())
			cancel()

			var all []stream.Event
			kinds := map[string]int{}
			measured := 0
			measure := func(eng *core.Engine, ctx context.Context, dst ipv4.Addr) {
				measured++
				var col collector
				res := drive.measure(eng, ctx, c.src, dst, col.sink)
				evs := col.evs
				all = append(all, evs...)

				// Hop events mirror Result.Hops 1:1, in order.
				var hops []stream.Event
				for _, ev := range evs {
					kinds[ev.Kind]++
					if ev.Kind == stream.KindHop {
						hops = append(hops, ev)
					}
				}
				if len(hops) != len(res.Hops) {
					t.Fatalf("%s: %d hop events for %d result hops", dst, len(hops), len(res.Hops))
				}
				for i, h := range res.Hops {
					ev := hops[i]
					if ev.Hop != h.Addr.String() || ev.Tech != h.Tech.String() || ev.Spliced != h.Spliced {
						t.Fatalf("%s: hop %d is %s/%s spliced=%v, its event says %s/%s spliced=%v",
							dst, i, h.Addr, h.Tech, h.Spliced, ev.Hop, ev.Tech, ev.Spliced)
					}
				}

				// Exactly one terminal event, last, agreeing with the
				// Result; it carries a reason exactly when the measurement
				// aborted or failed on its own account.
				last := evs[len(evs)-1]
				want := stream.KindDone
				switch {
				case res.Cancelled:
					want = stream.KindCancelled
				case res.Status == core.StatusAborted:
					want = stream.KindAborted
				case res.Status == core.StatusFailed:
					want = stream.KindFailed
				}
				if last.Kind != want || last.Status != res.Status.String() {
					t.Fatalf("%s: %s result closed by a %s/%s event", dst, res.Status, last.Kind, last.Status)
				}
				wantReason := want == stream.KindAborted || want == stream.KindFailed
				if (last.Reason != "") != wantReason {
					t.Fatalf("%s: %s terminal carries reason %q", dst, last.Kind, last.Reason)
				}
				for _, ev := range evs[:len(evs)-1] {
					switch ev.Kind {
					case stream.KindDone, stream.KindAborted, stream.KindFailed, stream.KindCancelled:
						t.Fatalf("%s: terminal %s event before the end of the sequence", dst, ev.Kind)
					}
					if ev.Reason != "" {
						t.Fatalf("%s: non-terminal %s event carries reason %q", dst, ev.Kind, ev.Reason)
					}
				}
			}
			// Two passes, so the second splices what the first published;
			// one measurement whose context is already cancelled; then
			// every destination again under a one-hop budget, which fails
			// whatever is not adjacent to the source.
			eng := engine(o)
			for pass := 0; pass < 2; pass++ {
				for _, d := range c.dsts {
					measure(eng, context.Background(), d)
				}
			}
			measure(eng, cancelled, c.dsts[0])
			tight := o
			tight.MaxHops = 1
			tight.SegmentStore = nil
			eng = engine(tight)
			for _, d := range c.dsts {
				measure(eng, context.Background(), d)
			}

			counter := func(name string) int { return int(reg.Counter(name).Value()) }
			for _, book := range []struct{ kind, counter string }{
				{stream.KindVPFailover, "vp_failover_total"},
				{stream.KindSpliced, "engine_segment_splices_total"},
				{stream.KindDone, "engine_measure_complete_total"},
				{stream.KindAborted, "engine_measure_aborted_total"},
				{stream.KindFailed, "engine_measure_failed_total"},
				{stream.KindCancelled, "engine_measure_cancelled_total"},
			} {
				if kinds[book.kind] != counter(book.counter) {
					t.Errorf("%d %s events, %s = %d", kinds[book.kind], book.kind, book.counter, counter(book.counter))
				}
				if kinds[book.kind] == 0 {
					t.Errorf("the fault world produced no %s transition: the test proved nothing about it", book.kind)
				}
			}
			t.Logf("events by kind: %v", kinds)
			terminals := kinds[stream.KindDone] + kinds[stream.KindAborted] + kinds[stream.KindFailed] + kinds[stream.KindCancelled]
			if terminals != measured {
				t.Errorf("%d terminal events for %d measurements", terminals, measured)
			}

			// The logger is a second consumer of the same events: one line
			// each, in order, named by kind and carrying the event's seq.
			if len(logged.lines) != len(all) {
				t.Fatalf("logger saw %d lines for %d events", len(logged.lines), len(all))
			}
			for i, ev := range all {
				if l := logged.lines[i]; l.kind != ev.Kind || l.seq != ev.Seq {
					t.Fatalf("line %d is %s seq %d, event %d is %s seq %d", i, l.kind, l.seq, i, ev.Kind, ev.Seq)
				}
			}
		})
	}
}
