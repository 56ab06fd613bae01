package sched_test

// The scheduler's two bounded memories — remembered batch statuses and
// the day cache — filled past their caps, and Drain's early returns.

import (
	"context"
	"errors"
	"testing"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

// TestBatchRetentionKeepsLiveBatches: past MaxBatches the oldest fully
// terminal batches are forgotten, but a batch with a job still open is
// never dropped — while every retained batch is live, the set grows
// past the cap and shrinks back once they finish.
func TestBatchRetentionKeepsLiveBatches(t *testing.T) {
	release := make(chan struct{})
	s := sched.New(func(ctx context.Context, job sched.JobRef) (any, error) {
		<-release
		return "ok", nil
	}, sched.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// One leader parked in flight; every later batch coalesces onto it
	// and stays open, so none is evictable.
	pair := specs(addr(1), addr(2))
	ids := []string{mustSubmit(t, s, "alice", pair).ID}
	for len(ids) <= sched.MaxBatches {
		ids = append(ids, mustSubmit(t, s, "alice", pair).ID)
	}
	if _, err := s.Status(ids[0]); err != nil {
		t.Fatalf("live batch forgotten past the cap: %v", err)
	}

	close(release)
	waitBatch(t, s, ids[len(ids)-1])
	// A day-cache hit is terminal at admission; remembering it evicts
	// the two oldest batches, now terminal, to get back under the cap.
	last := mustSubmit(t, s, "alice", pair)
	for _, id := range ids[:2] {
		if _, err := s.Status(id); !errors.Is(err, sched.ErrUnknownBatch) {
			t.Fatalf("batch %s retained past the cap: %v", id, err)
		}
	}
	for _, id := range []string{ids[2], last.ID} {
		if _, err := s.Status(id); err != nil {
			t.Fatalf("batch %s evicted early: %v", id, err)
		}
	}
}

// TestDayCacheCap: the day cache holds at most CacheCap results and
// evicts oldest-first, so the first pair measured measures again.
func TestDayCacheCap(t *testing.T) {
	o := obs.New()
	var runs int
	s := sched.New(nil, sched.Options{
		ExecAsync: func(_ context.Context, job sched.JobRef, done func(any, error)) {
			runs++ // the dispatcher is the only caller
			done(job.Dst, nil)
		},
		QueueCap: sched.CacheCap + 1,
		Obs:      o,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	dsts := make([]ipv4.Addr, sched.CacheCap+1)
	for i := range dsts {
		dsts[i] = addr(uint32(1000 + i))
	}
	st := mustSubmit(t, s, "alice", specs(addr(1), dsts...))
	waitBatch(t, s, st.ID)
	if got := s.CacheLen(); got != sched.CacheCap {
		t.Fatalf("cache holds %d results, want the cap %d", got, sched.CacheCap)
	}

	again := waitBatch(t, s, mustSubmit(t, s, "alice", specs(addr(1), dsts[0], dsts[1])).ID)
	if again.Jobs[0].State != "done" || again.Jobs[1].State != "coalesced" {
		t.Fatalf("after the cap: oldest %s, next %s; want the oldest evicted and the next cached",
			again.Jobs[0].State, again.Jobs[1].State)
	}
	if runs != sched.CacheCap+2 {
		t.Fatalf("%d measurements, want %d", runs, sched.CacheCap+2)
	}
}

// TestDrainReturns: Drain on a scheduler never started returns at once,
// and on one with a job in flight it gives up when its context ends.
func TestDrainReturns(t *testing.T) {
	if err := sched.New(newPureExec().exec, sched.Options{}).Drain(context.Background()); err != nil {
		t.Fatalf("drain of a scheduler never started: %v", err)
	}

	started, release := make(chan struct{}), make(chan struct{})
	s := sched.New(func(ctx context.Context, job sched.JobRef) (any, error) {
		close(started)
		<-release
		return "ok", nil
	}, sched.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	mustSubmit(t, s, "alice", specs(addr(1), addr(2)))
	<-started
	s.Stop()
	dctx, dcancel := context.WithCancel(context.Background())
	dcancel()
	if err := s.Drain(dctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with a job in flight and its context over: %v", err)
	}
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after the job finished: %v", err)
	}
}

// TestStateStringAndWrapNil: an out-of-range state renders its number,
// and WrapRevoked passes a nil error through.
func TestStateStringAndWrapNil(t *testing.T) {
	if got := sched.State(42).String(); got != "state(42)" {
		t.Fatalf("State(42) = %q", got)
	}
	if err := sched.New(nil, sched.Options{}).WrapRevoked("alice", nil); err != nil {
		t.Fatalf("WrapRevoked(nil) = %v", err)
	}
}
