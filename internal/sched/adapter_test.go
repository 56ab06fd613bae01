package sched_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"revtr/internal/obs"
	"revtr/internal/sched"
)

// TestBlockingExecBoundedByWorkers: a blocking Exec rides the one
// dispatcher with Workers as its in-flight bound — concurrent Exec
// calls reach Workers and never exceed it — and a panicking Exec fails
// only its own job. The batch lands jobs in all four terminal states,
// so it also pins the transition ledger: sched_jobs_total{state} summed
// over terminal states == terminal OnJob events == jobs submitted.
func TestBlockingExecBoundedByWorkers(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src, bomb := addr(1), addr(999)
			entered := make(chan struct{}, 64) // sized past the batch: Exec never blocks on it
			gate := make(chan struct{})
			var cur, peak atomic.Int64
			exec := func(ctx context.Context, job sched.JobRef) (any, error) {
				n := cur.Add(1)
				defer cur.Add(-1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				entered <- struct{}{}
				<-gate
				if job.Dst == bomb {
					panic("backend exploded")
				}
				return "ok", nil
			}
			var terminalEvents atomic.Int64
			o := obs.New()
			leaders := workers + 4
			s := sched.New(exec, sched.Options{Workers: workers, QueueCap: leaders, Obs: o,
				OnJob: func(ev sched.JobEvent) {
					if ev.State.Terminal() {
						terminalEvents.Add(1)
					}
				}})

			// Admitted before Start: leaders-1 distinct pairs and the bomb
			// fill the queue, two duplicates coalesce without a slot, two
			// more distinct pairs are shed by the cap.
			dsts := append(seqAddrs(100, leaders-1), bomb, addr(100), addr(100), addr(500), addr(501))
			st := mustSubmit(t, s, "alice", specs(src, dsts...))
			s.Start(context.Background())
			defer s.Stop()

			for i := 0; i < workers; i++ {
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d of %d workers entered Exec concurrently", i, workers)
				}
			}
			close(gate)
			final := waitBatch(t, s, st.ID)

			if p := peak.Load(); p != int64(workers) {
				t.Fatalf("peak concurrent Exec calls = %d, want exactly Workers = %d", p, workers)
			}
			want := map[string]int{"done": leaders - 1, "failed": 1, "coalesced": 2, "shed": 2}
			for state, n := range want {
				if final.Counts[state] != n {
					t.Fatalf("counts = %v, want %v", final.Counts, want)
				}
			}
			if got := o.Counter("sched_exec_panics_total").Value(); got != 1 {
				t.Fatalf("sched_exec_panics_total = %d, want 1", got)
			}
			var counted uint64
			for state := range want {
				counted += o.Counter(obs.Label("sched_jobs_total", "state", state)).Value()
			}
			if n := uint64(len(dsts)); counted != n || uint64(terminalEvents.Load()) != n {
				t.Fatalf("ledger: %d jobs submitted, sched_jobs_total terminal sum %d, terminal OnJob events %d",
					n, counted, terminalEvents.Load())
			}
		})
	}
}

// TestStopDrainLeavesNoGoroutine: a scheduler started under a context
// that is never cancelled must leave nothing behind after Stop+Drain.
// Before Start and Wait moved to context.AfterFunc, Start parked a
// goroutine on ctx.Done() forever.
func TestStopDrainLeavesNoGoroutine(t *testing.T) {
	// Earlier tests' schedulers wind down asynchronously (deferred
	// cancel, no Drain): take the baseline once the count has held still
	// for 100ms, or a straggler would mask the leak.
	baseline := runtime.NumGoroutine()
	for still := 0; still < 20; still++ {
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != baseline {
			baseline, still = n, 0
		}
	}
	s := sched.New(newPureExec().exec, sched.Options{Workers: 2})
	s.Start(context.Background())
	st := mustSubmit(t, s, "alice", specs(addr(1), seqAddrs(100, 8)...))
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	s.Stop()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain's own waiter closes the channel just before it returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop+Drain, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
