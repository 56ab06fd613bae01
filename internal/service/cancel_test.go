package service_test

import (
	"context"
	"testing"
	"time"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// blockingBackend simulates a slow topology: Measure blocks until its
// context is cancelled, then reports a failed measurement — the contract
// context-aware backends follow.
type blockingBackend struct {
	entered chan struct{} // signals a measurement is in flight
}

func (b *blockingBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	return core.Source{Agent: measure.Agent{Addr: addr}, Atlas: atlas.New(measure.Agent{Addr: addr})}, nil
}

func (b *blockingBackend) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusFailed}
}

func (b *blockingBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, _ func(stream.Event), done func(*core.Result)) {
	go func() { done(b.Measure(ctx, src, dst)) }()
}

func (b *blockingBackend) RefreshAtlas(core.Source) {}

// TestMeasureCancellationReleasesSlot: cancelling a request mid-
// measurement makes Registry.Measure return promptly with a failed
// measurement and releases the user's MaxParallel slot for the next
// request.
func TestMeasureCancellationReleasesSlot(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 1)}
	reg := service.NewRegistry(bb, "adm")
	u, err := reg.AddUser("adm", "carol", 1, 100) // exactly one parallel slot
	if err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, srcAddr, false); err != nil {
		t.Fatal(err)
	}
	dst, _ := ipv4.ParseAddr("10.0.0.2")

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		m   *service.Measurement
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		m, err := reg.Measure(ctx, u.APIKey, srcAddr, dst)
		res <- outcome{m, err}
	}()

	<-bb.entered // the measurement holds the only slot and is blocked
	cancel()

	select {
	case o := <-res:
		if o.err != nil {
			t.Fatalf("cancelled measure errored: %v", o.err)
		}
		if o.m.Status != "failed" {
			t.Fatalf("status = %q, want failed", o.m.Status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled measurement did not return promptly")
	}

	// The slot must be free again: a second measurement must get past the
	// quota check into the backend instead of ErrRateLimited.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := reg.Measure(ctx2, u.APIKey, srcAddr, dst); err != nil {
		t.Fatalf("slot leaked after cancellation: %v", err)
	}
}

// TestMeasureDeadline: a context deadline bounds measurement wall time —
// the per-request timeout the HTTP layer builds from timeoutMs.
func TestMeasureDeadline(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 1)}
	reg := service.NewRegistry(bb, "adm")
	u, err := reg.AddUser("adm", "dave", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, srcAddr, false); err != nil {
		t.Fatal(err)
	}
	dst, _ := ipv4.ParseAddr("10.0.0.2")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	m, err := reg.Measure(ctx, u.APIKey, srcAddr, dst)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != "failed" {
		t.Fatalf("status = %q, want failed", m.Status)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not bound measurement wall time")
	}
}
