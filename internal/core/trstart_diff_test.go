package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
)

// TestTracerouteStartDifferential: where the symmetry-stage traceroute
// starts probing, and how its window climbs, change what a measurement
// costs in traceroute packets and nothing else. Every pair is measured six
// ways over the same world, each by an engine of its own, dearest first.
// The machines are hand-driven: the start is fixed in the Pending, so the
// test can overrule it, and can turn a chain step (Prev set) back into a
// traceroute to the hop itself. The first five engines climb one TTL at a
// time and read no memo of where the source met an AS (NoMemoOrClimb).
// "classic" turns the chain steps back and forces every traceroute to TTL
// 1; "no-median" leaves the chain steps and sweeps the rest; "median"
// turns the chain steps back and forces the atlas's MedianHops on every
// traceroute; "chained" leaves the chain steps and gives the rest the
// median; "distance" leaves the start alone — the rest start one TTL past
// the reverse-distance estimate. "memo" is the engine as it is: a
// traceroute starts where the source's own traceroutes met the target's
// AS, where they did, and climbs three TTLs past a hop outside that AS.
// Status, hop list and the Record Route
// columns must match pair for pair those of the first run that treats
// chain steps alike ("classic" or "no-median"; TestChainStepDifferential
// compares the two), and each variant must send fewer packets than the one
// before.
func TestTracerouteStartDifferential(t *testing.T) {
	h, _ := newHarness(t, nil)
	env := h.env
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 25, 8)
	type variant struct {
		name string
		// start is the TTL forced on a traceroute the machine would start at
		// own; nil: the machine's own. toHop turns chain steps into
		// traceroutes to the hop, which start has to start too.
		start   func(median, own int, chained bool) int
		toHop   bool
		memo    bool
		eng     *core.Engine
		reg     *obs.Registry
		packets uint64
	}
	variants := []*variant{
		{name: "classic", start: func(int, int, bool) int { return 1 }, toHop: true},
		{name: "no-median", start: func(_, own int, chained bool) int {
			if chained {
				return own
			}
			return 1
		}},
		{name: "median", start: func(median, _ int, _ bool) int { return median }, toHop: true},
		{name: "chained", start: func(median, own int, chained bool) int {
			if chained {
				return own
			}
			return median
		}},
		{name: "distance"},
		{name: "memo", memo: true},
	}
	var sources []core.Source
	for i := 0; i < 4; i++ {
		a := env.Agent(env.SourceHost(i * 5))
		at := svc.BuildFor(a)
		if at.MedianHops < 2 {
			t.Fatalf("source %s: MedianHops = %d, no tail to start at", a.Addr, at.MedianHops)
		}
		sources = append(sources, core.Source{Agent: a, Atlas: at})
	}
	for _, v := range variants {
		v.eng = core.NewEngine(env.Fabric, env.Pool, h.ing, env.Sites, env.Alias,
			ip2as.Origin{Topo: env.Topo}, nil, core.Revtr20Options())
		v.reg = obs.New()
		v.eng.SetMetrics(core.NewMetrics(v.reg))
		if !v.memo {
			v.eng.NoMemoOrClimb()
		}
	}
	var text strings.Builder
	if err := variants[0].reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"engine_traceroutes_total 0\n", "engine_traceroute_sweeps_total 0\n", "engine_traceroute_packets_total 0\n", "engine_traceroute_memo_starts_total 0\n"} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("/metrics before any measurement lacks %q", line)
		}
	}
	measure := func(v *variant, si int, dst ipv4.Addr) *core.Result {
		mm := v.eng.Begin(context.Background(), sources[si], dst)
		for p := mm.Next(); p != nil; p = mm.Next() {
			if p.Kind == core.PendingTraceroute && v.start != nil {
				chained := p.Prev != nil
				if chained && v.toHop {
					p.Dst, p.Prev = mm.Cursor(), nil
				}
				p.Start = v.start(sources[si].Atlas.MedianHops, p.Start, chained)
			}
			mm.Deliver(v.eng.ExecPending(mm.Context(), p))
		}
		return mm.Result()
	}

	pairs := 0
	for si := range sources {
		for i := 0; i < 130; i++ {
			dst := env.ResponsiveHost(i, sources[si].Agent.AS)
			if dst == nil {
				break
			}
			pairs++
			want := map[bool]*core.Result{} // by toHop
			for _, v := range variants {
				got := measure(v, si, dst.Addr)
				if want[v.toHop] == nil {
					want[v.toHop] = got
				}
				if w := want[v.toHop]; got.Status != w.Status || !reflect.DeepEqual(got.Hops, w.Hops) ||
					got.Probes.RR != w.Probes.RR || got.Probes.SpoofRR != w.Probes.SpoofRR {
					t.Fatalf("%s→%s: %s diverges from the first run that treats chain steps alike:\n%s\n%s", sources[si].Agent.Addr, dst.Addr,
						v.name, renderCoreResult(got), renderCoreResult(w))
				}
				v.packets += got.Probes.Traceroute
			}
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d pairs measured, want >= 500", pairs)
	}
	// Every traceroute of classic's sends; a chain step whose answer is in
	// hand does not, and is not issued.
	issued := variants[0].reg.Counter("engine_traceroutes_total").Value()
	for i, v := range variants {
		n, swept := v.reg.Counter("engine_traceroutes_total").Value(), v.reg.Counter("engine_traceroute_sweeps_total").Value()
		memo := v.reg.Counter("engine_traceroute_memo_starts_total").Value()
		t.Logf("%-9s %d traceroutes, %d swept, %d started from the memo, %d packets", v.name, n, swept, memo, v.packets)
		if (memo > 0) != v.memo {
			t.Fatalf("%s: %d traceroutes started from the memo", v.name, memo)
		}
		if n != issued && (v.toHop || n > issued) || v.reg.Counter("engine_traceroute_packets_total").Value() != v.packets {
			t.Fatalf("%s: %d traceroutes of %d packets on /metrics; classic issued %d, the results sum to %d packets", v.name,
				n, v.reg.Counter("engine_traceroute_packets_total").Value(), issued, v.packets)
		}
		if v.name == "classic" && swept != n {
			t.Fatalf("classic: %d of %d traceroutes swept", swept, n)
		}
		if i > 0 && v.packets >= variants[i-1].packets {
			t.Fatalf("%s saved nothing on %s: %d packets against %d", v.name, variants[i-1].name, v.packets, variants[i-1].packets)
		}
	}
}
