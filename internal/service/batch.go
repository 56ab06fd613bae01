// Batch measurement API: the service face of internal/sched. The
// user's daily quota is charged through the scheduler's TryCharge
// callback, once per job that drives a measurement of its own: at
// admission for new flight leaders, and at promotion when a revoked
// leader's flight is handed to one of its subscribers (whose coalesced
// ride was free until then). Day-cache hits and duplicates coalesced
// onto an in-flight leader are never charged (Insight 1.4's reuse
// window applied at the request layer). Because completion never
// charges, jobs admitted before a midnight ResetDay cannot
// double-charge the new day's budget.
//
// Lock order: the scheduler calls TryCharge with its own lock held and
// TryCharge takes r.mu, so the global order is sched.mu → r.mu —
// nothing in this package may call into the scheduler while holding
// r.mu.
package service

import (
	"context"
	"errors"
	"sync/atomic"

	"revtr/internal/core"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

var (
	// ErrBatchDisabled rejects batch calls on a registry without an
	// enabled scheduler (EnableBatch was never called).
	ErrBatchDisabled = errors.New("service: batch scheduler not enabled")
	// ErrUnknownUser is returned when revoking a key that does not exist.
	ErrUnknownUser = errors.New("service: unknown user")
)

// EnableBatch attaches a batch scheduler to the registry and starts its
// dispatcher; ctx stops it (pair with Drain on the returned scheduler
// for an orderly shutdown). Every job starts through the backend's
// MeasureAsyncStream, so opts.MaxInFlight suspended measurements bound
// batch concurrency (opts.Workers has no effect here). The scheduler
// shares the registry's metric registry regardless of opts.Obs. Calling
// EnableBatch again returns the already-enabled scheduler.
func (r *Registry) EnableBatch(ctx context.Context, opts sched.Options) *sched.Scheduler {
	opts.Obs = r.obs
	opts.TryCharge = r.tryCharge
	opts.OnJob = r.publishJobEvent
	opts.ExecAsync = r.batchExecAsync
	sc := sched.New(nil, opts)
	r.mu.Lock()
	if r.sched != nil {
		sc = r.sched
		r.mu.Unlock()
		return sc
	}
	r.sched = sc
	r.mu.Unlock()
	sc.Start(ctx)
	return sc
}

// batchExecAsync is the scheduler's ExecAsync callback: start one
// measurement through the backend's MeasureAsyncStream and finish it —
// archive, status metrics, revocation wrapping — in the completion
// callback, which runs on a probe-pool executor goroutine (or on this
// one, when the measurement needs no probes). Quota was charged at
// admission (or at promotion, for a leader that inherited a revoked
// flight), so nothing is charged here — and the user's MaxParallel
// sync-request limit does not apply; the scheduler's in-flight bound is
// the batch concurrency control. Cancelled or panicked measurements
// fail the job so their partial results never resolve coalesced
// subscribers or enter the day cache.
//
// The source's atlas lock is held shared across the measurement's
// entire (suspended) lifetime, so DailyMaintenance cannot swap atlas
// entries mid-measurement. It is released exactly once: by the
// completion, or — when the backend panics before arranging one — by
// the recover below, which then counts the panic and fails the job.
func (r *Registry) batchExecAsync(ctx context.Context, job sched.JobRef, done func(res any, err error)) {
	r.mu.Lock()
	reg, ok := r.sources[job.Src]
	sc := r.sched
	var name string
	if u, known := r.users[job.User]; known {
		name = u.Name
	}
	r.mu.Unlock()
	if !ok {
		done(nil, ErrUnknownSource)
		return
	}
	var finished atomic.Bool
	defer func() {
		if v := recover(); v != nil {
			if finished.Swap(true) {
				panic(v) // the completion ran already, or raised this: the scheduler's recover takes it
			}
			reg.atlasMu.RUnlock()
			done(r.finishBatchJob(ctx, sc, job, name, nil))
		}
	}()
	reg.atlasMu.RLock()
	//revtr:heldacross the atlas read lock is pinned for the measurement's suspended lifetime — DailyMaintenance must not swap entries mid-measurement; the completion callback releases it
	r.backend.MeasureAsyncStream(ctx, reg.src, job.Dst, r.progressSink(job), func(res *core.Result) {
		if !finished.Swap(true) {
			reg.atlasMu.RUnlock()
			done(r.finishBatchJob(ctx, sc, job, name, res))
		}
	})
}

// finishBatchJob books one finished batch measurement: a panicked (nil)
// or cancelled measurement becomes the job's error — wrapped as a
// revocation when that is why it was cut short — and any other is
// counted, archived and published.
func (r *Registry) finishBatchJob(ctx context.Context, sc *sched.Scheduler, job sched.JobRef, userName string, res *core.Result) (any, error) {
	r.obs.Counter("service_batch_exec_total").Inc()
	if res == nil {
		r.countBackendPanic()
		return nil, sc.WrapRevoked(job.User, errors.New("service: backend panic"))
	}
	if err := ctx.Err(); err != nil {
		return nil, sc.WrapRevoked(job.User, err)
	}
	m, err := r.record(job.Src, job.Dst, userName, res)
	if err != nil {
		return nil, err // not record's nil *Measurement, which would be a non-nil any
	}
	return m, nil
}

// tryCharge is the scheduler's admission-quota callback: atomically
// charge one measurement against the user's daily budget, refusing
// when it is exhausted (or the user no longer exists). The scheduler
// calls it with its own lock held — see the package comment for the
// resulting sched.mu → r.mu lock order.
func (r *Registry) tryCharge(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[key]
	if !ok || u.usedToday >= u.MaxPerDay {
		return false
	}
	u.usedToday++
	r.userGauges(u)
	return true
}

// SubmitBatch admits a batch of (src, dst) jobs for the user owning
// key. Every src must be a registered source — a batch with any
// unknown source is rejected whole, before charging anything. The
// quota check and the charge are atomic inside tryCharge, serialized
// under the scheduler's admission lock, so concurrent submissions
// cannot overdraw MaxPerDay. The returned snapshot reflects admission
// (jobs may already be resolved from the day cache); poll BatchStatus
// for completion. ErrOverloaded means the dispatch queue shed the
// entire batch.
func (r *Registry) SubmitBatch(ctx context.Context, key string, specs []sched.JobSpec) (sched.BatchStatus, error) {
	r.mu.Lock()
	sc := r.sched
	if sc == nil {
		r.mu.Unlock()
		return sched.BatchStatus{}, ErrBatchDisabled
	}
	if _, ok := r.users[key]; !ok {
		r.mu.Unlock()
		return sched.BatchStatus{}, ErrUnauthorized
	}
	for _, sp := range specs {
		if _, ok := r.sources[sp.Src]; !ok {
			r.mu.Unlock()
			return sched.BatchStatus{}, ErrUnknownSource
		}
	}
	// r.mu must be released before calling into the scheduler: Submit
	// takes sched.mu and charges quota back through tryCharge (r.mu).
	r.mu.Unlock()
	return sc.Submit(ctx, key, specs)
}

// BatchStatus snapshots a batch. Only the submitting user (or the
// admin key) may see it; other users' batch IDs report as unknown
// rather than leaking their existence.
func (r *Registry) BatchStatus(key, id string) (sched.BatchStatus, error) {
	r.mu.Lock()
	sc := r.sched
	_, isUser := r.users[key]
	isAdmin := key != "" && key == r.adminKey
	r.mu.Unlock()
	if sc == nil {
		return sched.BatchStatus{}, ErrBatchDisabled
	}
	if !isUser && !isAdmin {
		return sched.BatchStatus{}, ErrUnauthorized
	}
	st, err := sc.Status(id)
	if err != nil {
		return sched.BatchStatus{}, err
	}
	if !isAdmin && st.User != key {
		return sched.BatchStatus{}, sched.ErrUnknownBatch
	}
	return st, nil
}

// RevokeUser deletes a user's API key (admin operation) and cancels
// the user's batch work: queued jobs fail with ErrRevoked, running
// measurements are interrupted, and in-flight leaders with other
// users' jobs coalesced onto them hand leadership over before failing,
// so revocation never takes other users' results down with it.
func (r *Registry) RevokeUser(adminKey, key string) error {
	if adminKey != r.adminKey {
		return ErrUnauthorized
	}
	r.mu.Lock()
	u, ok := r.users[key]
	if ok {
		delete(r.users, key)
	}
	sc := r.sched
	r.mu.Unlock()
	if !ok {
		return ErrUnknownUser
	}
	// Close the revoked key's event streams with an explicit end/revoked
	// before revoking its jobs: revocation fails the user's queued jobs,
	// which can turn a batch terminal and publish a normal end/done —
	// closing first guarantees the user's subscribers always see the
	// revocation as the terminal reason.
	if b := r.broker.Load(); b != nil {
		b.CloseUser(key, "revoked")
	}
	if sc != nil {
		sc.Revoke(key)
	}
	r.obs.Counter(obs.Label("service_user_revoked_total", "user", u.Name)).Inc()
	return nil
}
