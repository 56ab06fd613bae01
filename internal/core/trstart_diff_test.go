package core_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ip2as"
	"revtr/internal/obs"
)

// TestTracerouteStartDifferential: starting the symmetry-stage
// traceroute at the source's atlas-median TTL instead of TTL 1 changes
// what a measurement costs in traceroute packets and nothing else. Every
// pair is measured by two engines over the same world — one whose
// sources carry the atlas's own MedianHops, one whose sources carry the
// same atlas with MedianHops zeroed (start at TTL 1) — and status, hop
// list and the Record Route columns must match pair for pair.
func TestTracerouteStartDifferential(t *testing.T) {
	h, _ := newHarness(t, nil)
	env := h.env
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, 25, true, 8)
	var tail, whole []core.Source
	for i := 0; i < 4; i++ {
		a := env.Agent(env.SourceHost(i * 5))
		at := svc.BuildFor(a)
		if at.MedianHops < 2 {
			t.Fatalf("source %s: MedianHops = %d, no tail to start at", a.Addr, at.MedianHops)
		}
		fromOne := *at // shares the (read-only) entries and indexes
		fromOne.MedianHops = 0
		tail = append(tail, core.Source{Agent: a, Atlas: at})
		whole = append(whole, core.Source{Agent: a, Atlas: &fromOne})
	}
	engine := func() (*core.Engine, *obs.Registry) {
		eng := core.NewEngine(env.Fabric, env.Pool, h.ing, env.Sites, env.Alias,
			ip2as.Origin{Topo: env.Topo}, nil, core.Revtr20Options())
		reg := obs.New()
		eng.SetMetrics(core.NewMetrics(reg))
		return eng, reg
	}
	tailEng, tailReg := engine()
	wholeEng, wholeReg := engine()
	var text strings.Builder
	if err := tailReg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"engine_traceroutes_total 0\n", "engine_traceroute_sweeps_total 0\n"} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("/metrics before any measurement lacks %q", line)
		}
	}

	pairs := 0
	var tailPkts, wholePkts uint64
	for si := range tail {
		for i := 0; i < 130; i++ {
			dst := env.ResponsiveHost(i, tail[si].Agent.AS)
			if dst == nil {
				break
			}
			pairs++
			got := tailEng.MeasureReverse(context.Background(), tail[si], dst.Addr)
			want := wholeEng.MeasureReverse(context.Background(), whole[si], dst.Addr)
			if got.Status != want.Status || !reflect.DeepEqual(got.Hops, want.Hops) ||
				got.Probes.RR != want.Probes.RR || got.Probes.SpoofRR != want.Probes.SpoofRR {
				t.Fatalf("%s→%s: start %d vs start 1 diverge:\n%s\n%s", tail[si].Agent.Addr, dst.Addr,
					tail[si].Atlas.MedianHops, renderCoreResult(got), renderCoreResult(want))
			}
			tailPkts += got.Probes.Traceroute
			wholePkts += want.Probes.Traceroute
		}
	}
	if pairs < 500 {
		t.Fatalf("only %d pairs measured, want >= 500", pairs)
	}
	issued := tailReg.Counter("engine_traceroutes_total").Value()
	swept := tailReg.Counter("engine_traceroute_sweeps_total").Value()
	if wi, ws := wholeReg.Counter("engine_traceroutes_total").Value(), wholeReg.Counter("engine_traceroute_sweeps_total").Value(); wi != issued || ws != wi {
		t.Fatalf("start 1: %d traceroutes, %d sweeps; the tail engine issued %d", wi, ws, issued)
	}
	if swept >= issued || tailPkts >= wholePkts {
		t.Fatalf("the tail start saved nothing: %d of %d traceroutes swept, %d packets against %d", swept, issued, tailPkts, wholePkts)
	}
	t.Logf("%d pairs: %d traceroutes, %d fell back to the sweep; traceroute packets %d from the tail, %d from TTL 1",
		pairs, issued, swept, tailPkts, wholePkts)
}
