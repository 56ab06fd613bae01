// Package ctxpkg exercises the ctxflow analyzer.
package ctxpkg

import (
	"context"
	"sync"
	"time"
)

// MeasureWith takes ctx first: the contract shape.
func MeasureWith(ctx context.Context, target string) error {
	return issue(ctx, target)
}

// MeasureLate takes ctx, but not first.
func MeasureLate(target string, ctx context.Context) error { // want "takes context.Context as parameter 2"
	return issue(ctx, target)
}

// MeasureNone issues context-aware work without accepting a context.
func MeasureNone(target string) error { // want "issues context-aware work .calls issue. but takes no context.Context"
	return issue(context.TODO(), target) // want "context.TODO.. synthesized outside main/tests"
}

// SleepyExported blocks directly without a context.
func SleepyExported() { // want "blocks .time.Sleep. but takes no context.Context"
	time.Sleep(time.Millisecond)
}

// WaitExported blocks on a WaitGroup without a context.
func WaitExported(wg *sync.WaitGroup) { // want "blocks .sync.WaitGroup.Wait. but takes no context.Context"
	wg.Wait()
}

// RecvExported blocks on a channel receive without a context.
func RecvExported(ch chan int) int { // want "blocks .channel receive. but takes no context.Context"
	return <-ch
}

// SpawnOnly starts a goroutine that blocks; the exported caller itself
// never blocks, so no context is demanded for the blocking alone.
func SpawnOnly(ch chan int) {
	go func() {
		<-ch
	}()
}

// Normalize replaces a nil context: rule 3 has no exception, so even
// this shape is flagged.
func Normalize(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background() // want "context.Background.. synthesized outside main/tests"
	}
	return issue(ctx, "x")
}

// Synthesize severs the caller's cancellation.
func Synthesize(ctx context.Context) error {
	ctx = context.Background() // want "context.Background.. synthesized outside main/tests"
	return issue(ctx, "x")
}

// pure is unexported and exempt from the signature rules.
func pure(target string) error {
	return issue(context.Background(), target) // want "context.Background.. synthesized outside main/tests"
}

// issue stands in for the probe layer: ctx-first work.
func issue(ctx context.Context, target string) error {
	_ = ctx
	_ = target
	return nil
}

// hidden is an unexported type: methods on it are not package API.
type hidden struct{}

// Sleep on an unexported receiver is exempt.
func (hidden) Sleep() { time.Sleep(time.Millisecond) }

// Visible is exported: its methods are package API.
type Visible struct{}

// Block is an exported method on an exported type.
func (Visible) Block() { // want "blocks .select. but takes no context.Context"
	select {}
}
