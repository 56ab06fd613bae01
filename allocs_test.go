//go:build !race

package revtr

// Allocation ceilings for the deterministic per-job paths of the serving
// layers (ROADMAP 3a; internal/netsim/fabric/hotpath_test.go holds the
// forwarding step's). Each is the count measured when the ceiling was
// set, so a rise is a change to what the operation costs and says so
// here. Not built under -race: the detector makes sync.Pool drop a share
// of its Puts, and encoding/json then allocates encoders it would have
// reused.

import (
	"context"
	"testing"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/sched"
	"revtr/internal/store"
	"revtr/internal/stream"
)

func checkAllocs(t *testing.T, what string, got, ceiling float64) {
	t.Helper()
	if got > ceiling {
		t.Errorf("%s allocates %.0f times, ceiling %.0f", what, got, ceiling)
	}
}

// TestStoreAppendAllocCeiling: one Append of a small record costs its
// JSON and, with a WAL, the line around it.
func TestStoreAppendAllocCeiling(t *testing.T) {
	type rec struct {
		ID  uint64 `json:"id"`
		Dst string `json:"dst"`
	}
	for _, tc := range []struct {
		name, dir string
		ceiling   float64
	}{
		{"memory-only Append", "", 2},
		{"Append with a WAL", t.TempDir(), 4},
	} {
		l, err := store.Open(tc.dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(500, func() {
			if _, err := l.Append(func(id uint64) any { return rec{ID: id, Dst: "10.0.0.1"} }); err != nil {
				t.Error(err)
			}
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		checkAllocs(t, tc.name, got, tc.ceiling)
	}
}

// TestStreamPublishAllocCeiling: one Publish costs the replay window's
// growth — nothing, averaged over a run — with nobody subscribed and
// with one subscriber that keeps up.
func TestStreamPublishAllocCeiling(t *testing.T) {
	ev := stream.Event{Kind: stream.KindHop, Hop: "10.0.0.1", Tech: "rr"}

	b := stream.New(stream.Options{})
	checkAllocs(t, "Publish to 0 subscribers", testing.AllocsPerRun(1000, func() { b.Publish("t", ev) }), 0)

	b = stream.New(stream.Options{})
	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkAllocs(t, "Publish to 1 subscriber", testing.AllocsPerRun(1000, func() {
		b.Publish("t", ev)
		if _, ok, err := sub.TryNext(); !ok || err != nil {
			t.Errorf("the subscriber got nothing: ok=%v err=%v", ok, err)
		}
	}), 0)
}

// TestSchedSubmitToTerminalAllocCeiling: one job's trip through the
// scheduler — Submit of a one-pair batch, dispatch to an executor that
// completes at once, Wait for the terminal state. Every run submits a
// pair not seen before, so none is served by the day cache.
func TestSchedSubmitToTerminalAllocCeiling(t *testing.T) {
	s := sched.New(nil, sched.Options{
		ExecAsync: func(_ context.Context, _ sched.JobRef, done func(any, error)) { done(nil, nil) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	dst := ipv4.Addr(0x0a000100)
	got := testing.AllocsPerRun(500, func() {
		dst++
		st, err := s.Submit(ctx, "alice", []sched.JobSpec{{Src: 0x0a000001, Dst: dst}})
		if err == nil {
			st, err = s.Wait(ctx, st.ID)
		}
		if err != nil || st.Counts["done"] != 1 {
			t.Errorf("job to %s: counts %v, err %v", dst, st.Counts, err)
		}
	})
	checkAllocs(t, "submit to terminal", got, 24)
}

// TestMeasureReverseAllocCeiling: one Engine.MeasureReverse of a fixed
// pair that sweeps spoofed batches and falls through to the traceroute
// stage, on an engine that has measured nothing (cold: every stage
// probes and writes its cache entries) and on one that measured the pair
// before (warm: every stage is served from the cache). The cold ceiling
// stood at 258 until the atlas grew to n·3/8: the larger atlas moves the
// median hop count, so the pair's traceroute sends one packet more, and
// header marshalling's single append took the reading to 209. Warm reads
// 10 throughout.
func TestMeasureReverseAllocCeiling(t *testing.T) {
	cfg := DefaultConfig(300)
	d := Build(cfg)
	src := d.NewSource(d.PickSourceHost(0))
	dst := d.OnePerPrefix()[12].Addr // 4 spoofed batches, 4 RR and 6 traceroute packets
	ctx := context.Background()

	const runs = 50
	engines := make([]*core.Engine, runs+1) // AllocsPerRun warms up with a run of its own
	for i := range engines {
		engines[i] = d.Engine(core.Revtr20Options())
	}
	var res *core.Result
	next := 0
	cold := testing.AllocsPerRun(runs, func() {
		res = engines[next].MeasureReverse(ctx, src, dst)
		next++
	})
	if res.SpoofBatches == 0 || res.Probes.Traceroute == 0 {
		t.Fatalf("the pair exercises too little: %d spoofed batches, %d traceroute packets (status %v)",
			res.SpoofBatches, res.Probes.Traceroute, res.Status)
	}
	checkAllocs(t, "cold MeasureReverse", cold, 209)

	eng := engines[0]
	warm := testing.AllocsPerRun(runs, func() { res = eng.MeasureReverse(ctx, src, dst) })
	if res.Probes.Total() != 0 {
		t.Fatalf("the warm measurement sent %+v, want everything from the cache", res.Probes)
	}
	checkAllocs(t, "cache-warm MeasureReverse", warm, 10)
}
