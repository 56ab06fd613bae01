package core_test

// Suspend/resume property suite for the resumable measurement machine:
// stopping a measurement at any spoofed-batch (or any probe-batch)
// boundary, snapshotting it with Clone, and resuming only the snapshot
// must produce a Result bit-identical to the straight-through run. Also
// the S2 cancellation regression: a measurement whose probe batch was
// cut short by context cancellation must report Cancelled rather than
// masquerading as "probed but silent".

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"revtr/internal/core"
	"revtr/internal/netsim/faults"
	"revtr/internal/obs"
	"revtr/internal/probe"
)

// driveMachine pulls a machine to completion, executing every pending
// probe batch synchronously; returns the result and how many pendings
// the measurement suspended on.
func driveMachine(eng *core.Engine, mm *core.Machine) (*core.Result, int) {
	n := 0
	for p := mm.Next(); p != nil; p = mm.Next() {
		mm.Deliver(eng.ExecPending(mm.Context(), p))
		n++
	}
	return mm.Result(), n
}

// TestResumeBitIdentity: for every suspension boundary k of a
// measurement with n pendings, run the first k batches on a machine,
// Clone it mid-suspension, resume only the clone, and require a Result
// bit-identical to the reference straight-through run — then resume the
// abandoned original too and require the same, proving the clone and
// its parent share no mutable state. Three topology seeds under a lossy
// fault plan, in both the revtr 2.0 and revtr 1.0 configurations.
func TestResumeBitIdentity(t *testing.T) {
	configs := []struct {
		name string
		opts func() core.Options
	}{
		{"revtr20", core.Revtr20Options},
		{"revtr10", core.Revtr10Options},
	}
	for _, seed := range []int64{1, 4, 9} {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, cfg.name), func(t *testing.T) {
				c := newChaosEnv(t, seed, 3)
				c.env.Fabric.SetFaults(&faults.Plan{
					Seed: uint64(seed), LinkLoss: 0.1, ICMPFrac: 0.3, ICMPPass: 0.5,
				})
				o := cfg.opts()
				// Caching off: every run of a destination must be
				// independent of the runs before it.
				o.UseCache = false
				eng, _ := c.engineOpts(1, probe.RetryPolicy{Max: 1}, o)
				for _, dst := range c.dsts {
					ref, n := driveMachine(eng, eng.Begin(context.Background(), c.src, dst))
					if n == 0 {
						continue // completed without suspending; nothing to resume
					}
					for k := 0; k < n; k++ {
						mm := eng.Begin(context.Background(), c.src, dst)
						for i := 0; i < k; i++ {
							mm.Deliver(eng.ExecPending(mm.Context(), mm.Next()))
						}
						cl := mm.Clone()
						got, rest := driveMachine(eng, cl)
						if !reflect.DeepEqual(got, ref) || k+rest != n {
							t.Fatalf("dst %s: clone resumed at boundary %d/%d diverged (+%d pendings)\nref %+v\ngot %+v",
								dst, k, n, rest, ref, got)
						}
						orig, rest := driveMachine(eng, mm)
						if !reflect.DeepEqual(orig, ref) || k+rest != n {
							t.Fatalf("dst %s: original resumed after cloning at boundary %d/%d diverged\nref %+v\ngot %+v",
								dst, k, n, ref, orig)
						}
					}
				}
			})
		}
	}
}

// TestCancelledBatchNotCharged: cancelling the context while a probe
// batch is pending makes the pool skip its probes; the machine must
// read the skip as cancellation — Cancelled result, cancelled metric,
// no probes charged — not as "every vantage point went silent". Before
// the fix the zero-value replies flowed into the technique logic and
// the run counted against engine_measure_failed_total.
func TestCancelledBatchNotCharged(t *testing.T) {
	h, eng := newHarness(t, nil)
	reg := obs.New()
	eng.SetMetrics(core.NewMetrics(reg))
	dst := h.env.ResponsiveHost(0, h.src.Agent.AS)

	ctx, cancel := context.WithCancel(context.Background())
	mm := eng.Begin(ctx, h.src, dst.Addr)
	p := mm.Next()
	if p == nil {
		t.Fatal("measurement finished without suspending on a probe batch")
	}
	cancel()
	d := eng.ExecPending(mm.Context(), p)
	if d.Batch.Skipped == 0 {
		t.Fatalf("cancelled pool run skipped nothing: %+v", d.Batch)
	}
	mm.Deliver(d)
	if !mm.Done() {
		t.Fatal("machine kept running after a cancellation-skipped batch")
	}
	res := mm.Result()
	if res.Status != core.StatusFailed || !res.Cancelled {
		t.Fatalf("status = %v cancelled = %v, want failed + cancelled", res.Status, res.Cancelled)
	}
	if res.Probes != d.Batch.Sent {
		t.Fatalf("cancelled measurement charged %+v, pool sent %+v", res.Probes, d.Batch.Sent)
	}
	if got := reg.Counter("engine_measure_cancelled_total").Value(); got != 1 {
		t.Fatalf("engine_measure_cancelled_total = %d, want 1", got)
	}
	if got := reg.Counter("engine_measure_failed_total").Value(); got != 0 {
		t.Fatalf("cancelled run counted as a probing failure (engine_measure_failed_total = %d)", got)
	}
}

// TestResumeRound: Clone/resume at both suspensions of a spoofed round —
// the lead in flight with its hedges held, and the hedges in flight behind
// a lead that revealed nothing. The original resumes first and prunes or
// sends its held hedges, so a clone that shared them, or shared whether the
// lead waited out the timeout, would diverge from the straight-through run.
func TestResumeRound(t *testing.T) {
	c := newChaosEnv(t, 8, 60)
	o := core.Revtr20Options()
	o.UseCache = false // every run of a destination independent of the runs before it
	eng, _ := c.engineOpts(1, probe.RetryPolicy{}, o)
	bg := context.Background()
	leads, hedges := 0, 0
	for _, dst := range c.dsts {
		ref, n := driveMachine(eng, eng.Begin(bg, c.src, dst))
		for k := 0; k < n; k++ {
			mm := eng.Begin(bg, c.src, dst)
			for i := 0; i < k; i++ {
				mm.Deliver(eng.ExecPending(mm.Context(), mm.Next()))
			}
			switch p := mm.Next(); {
			case p.Hedges:
				hedges++
			case isSpoofSweep(p) && len(mm.Held()) > 0:
				leads++
			default:
				continue
			}
			cl := mm.Clone()
			for _, m := range []*core.Machine{mm, cl} {
				if got, rest := driveMachine(eng, m); !reflect.DeepEqual(got, ref) || k+rest != n {
					t.Fatalf("dst %s: resumed at boundary %d/%d (+%d pendings) diverged\nref %+v\ngot %+v", dst, k, n, rest, ref, got)
				}
			}
		}
	}
	if leads == 0 || hedges == 0 {
		t.Fatalf("%d lead and %d hedge suspensions: the test exercises half of the round, or none", leads, hedges)
	}
	t.Logf("%d lead and %d hedge suspensions resumed bit-identically", leads, hedges)
}
