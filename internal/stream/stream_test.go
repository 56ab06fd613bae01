package stream_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"revtr/internal/obs"
	"revtr/internal/stream"
)

// drain pops everything currently buffered.
func drain(t *testing.T, s *stream.Sub) []stream.Event {
	t.Helper()
	var out []stream.Event
	for {
		ev, ok, err := s.TryNext()
		if err != nil || !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestPublishSubscribeOrder: events arrive in publish order with
// monotonically increasing per-topic delivery IDs.
func TestPublishSubscribeOrder(t *testing.T) {
	b := stream.New(stream.Options{})
	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Publish("t", stream.Event{Kind: stream.KindHop, Hop: fmt.Sprintf("h%d", i)})
	}
	evs := drain(t, sub)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Hop != fmt.Sprintf("h%d", i) {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
		if ev.ID != uint64(i+1) {
			t.Fatalf("event %d has ID %d, want %d", i, ev.ID, i+1)
		}
	}
}

// TestOverflowGapsAndLedger: a subscriber that never drains overflows
// its ring, sees a gap event carrying the exact loss, and its ledger
// balances: Offered == Delivered + Dropped + Buffered.
func TestOverflowGapsAndLedger(t *testing.T) {
	o := obs.New()
	b := stream.New(stream.Options{SubBuffer: 4, Obs: o})
	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const published = 20
	for i := 0; i < published; i++ {
		b.Publish("t", stream.Event{Kind: stream.KindHop})
	}
	ev, ok, err := sub.TryNext()
	if err != nil || !ok {
		t.Fatalf("TryNext: ok=%v err=%v", ok, err)
	}
	if ev.Kind != stream.KindGap || ev.Gap != published-4 {
		t.Fatalf("first event = %+v, want gap of %d", ev, published-4)
	}
	rest := drain(t, sub)
	if len(rest) != 4 {
		t.Fatalf("drained %d events after the gap, want 4", len(rest))
	}
	// Survivors are the newest 4.
	if rest[0].ID != published-3 || rest[3].ID != published {
		t.Fatalf("survivor IDs %d..%d, want %d..%d", rest[0].ID, rest[3].ID, published-3, published)
	}
	st := sub.Stats()
	if st.Offered != st.Delivered+st.Dropped+uint64(st.Buffered) {
		t.Fatalf("ledger does not balance: %+v", st)
	}
	if st.Dropped != published-4 || st.Gaps != 1 {
		t.Fatalf("stats = %+v, want dropped=%d gaps=1", st, published-4)
	}
	if got := o.Counter(obs.Label("stream_dropped_total", "reason", "slow-subscriber")).Value(); got != published-4 {
		t.Fatalf("stream_dropped_total{slow-subscriber} = %d, want %d", got, published-4)
	}
}

// TestReplayResume: a reconnecting subscriber resumes after its last
// seen ID; a resume point that slid out of the window yields a leading
// gap, never a silent skip.
func TestReplayResume(t *testing.T) {
	b := stream.New(stream.Options{Replay: 8})
	for i := 0; i < 20; i++ {
		b.Publish("t", stream.Event{Kind: stream.KindHop})
	}
	// Resume within the window (newest 8 events are IDs 13..20).
	sub, err := b.Subscribe("t", stream.SubOptions{AfterID: 15})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, sub)
	if len(evs) != 5 || evs[0].ID != 16 || evs[4].ID != 20 {
		t.Fatalf("resume after 15: got %d events (IDs %v...), want 16..20", len(evs), evs)
	}
	sub.Close()

	// Resume out of the window: IDs 6..12 are lost, reported as a gap.
	sub2, err := b.Subscribe("t", stream.SubOptions{AfterID: 5})
	if err != nil {
		t.Fatal(err)
	}
	evs2 := drain(t, sub2)
	if evs2[0].Kind != stream.KindGap || evs2[0].Gap != 7 {
		t.Fatalf("out-of-window resume: first event %+v, want gap of 7", evs2[0])
	}
	if len(evs2) != 9 { // gap + 8 retained
		t.Fatalf("got %d events, want 9", len(evs2))
	}
	sub2.Close()

	// Live-only: nothing replayed.
	sub3, err := b.Subscribe("t", stream.SubOptions{AfterID: -1})
	if err != nil {
		t.Fatal(err)
	}
	if evs3 := drain(t, sub3); len(evs3) != 0 {
		t.Fatalf("live-only subscription replayed %d events", len(evs3))
	}
	sub3.Close()
}

// TestSubscribeAfterDone: a topic that published its end event and
// finished still serves its retained window — terminal state included —
// to late subscribers, and the end event survives window eviction.
func TestSubscribeAfterDone(t *testing.T) {
	b := stream.New(stream.Options{Replay: 4})
	for i := 0; i < 10; i++ {
		b.Publish("t", stream.Event{Kind: stream.KindState})
	}
	b.Publish("t", stream.Event{Kind: stream.KindEnd, Reason: "done"})
	b.Finish("t")

	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, sub)
	if len(evs) == 0 {
		t.Fatal("subscribe-after-done got nothing")
	}
	last := evs[len(evs)-1]
	if last.Kind != stream.KindEnd || last.Reason != "done" {
		t.Fatalf("last replayed event = %+v, want the end event", last)
	}
	sub.Close()
}

// TestCloseUser: revocation ends exactly the owner's subscriptions,
// with a terminal end event carrying the reason; other owners' streams
// live on.
func TestCloseUser(t *testing.T) {
	b := stream.New(stream.Options{})
	alice, err := b.Subscribe("t", stream.SubOptions{Owner: "alice-key"})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := b.Subscribe("t", stream.SubOptions{Owner: "bob-key"})
	if err != nil {
		t.Fatal(err)
	}
	b.CloseUser("alice-key", "revoked")

	evs := drain(t, alice)
	if len(evs) != 1 || evs[0].Kind != stream.KindEnd || evs[0].Reason != "revoked" {
		t.Fatalf("alice got %+v, want one end/revoked event", evs)
	}
	if _, _, err := alice.TryNext(); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("alice after drain: err=%v, want ErrClosed", err)
	}

	b.Publish("t", stream.Event{Kind: stream.KindHop})
	bevs := drain(t, bob)
	if len(bevs) != 1 || bevs[0].Kind != stream.KindHop {
		t.Fatalf("bob got %+v, want the live hop event", bevs)
	}
	bob.Close()
}

// TestShutdown: every subscription ends with an end/shutdown event,
// later publishes are dropped (counted), and later subscriptions are
// refused with ErrShutdown.
func TestShutdown(t *testing.T) {
	o := obs.New()
	b := stream.New(stream.Options{Obs: o})
	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	b.Shutdown() // idempotent

	evs := drain(t, sub)
	if len(evs) != 1 || evs[0].Kind != stream.KindEnd || evs[0].Reason != "shutdown" {
		t.Fatalf("got %+v, want one end/shutdown event", evs)
	}
	if _, _, err := sub.TryNext(); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("after shutdown drain: err=%v, want ErrClosed", err)
	}

	b.Publish("t", stream.Event{Kind: stream.KindHop})
	if got := o.Counter(obs.Label("stream_dropped_total", "reason", "shutdown")).Value(); got != 1 {
		t.Fatalf("stream_dropped_total{shutdown} = %d, want 1", got)
	}
	if _, err := b.Subscribe("t", stream.SubOptions{}); !errors.Is(err, stream.ErrShutdown) {
		t.Fatalf("Subscribe after shutdown: %v, want ErrShutdown", err)
	}
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after shutdown, want 0", n)
	}
}

// TestBounds: the per-topic subscriber cap and the topic-registry cap
// hold; finished topics are evicted to admit new ones, closing their
// stragglers with end/evicted.
func TestBounds(t *testing.T) {
	b := stream.New(stream.Options{MaxSubs: 2, MaxTopics: 2})
	s1, _ := b.Subscribe("a", stream.SubOptions{})
	s2, _ := b.Subscribe("a", stream.SubOptions{})
	if _, err := b.Subscribe("a", stream.SubOptions{}); !errors.Is(err, stream.ErrTooManySubscribers) {
		t.Fatalf("3rd subscriber: %v, want ErrTooManySubscribers", err)
	}
	s1.Close()
	s3, err := b.Subscribe("a", stream.SubOptions{})
	if err != nil {
		t.Fatalf("subscribe after a Close should fit: %v", err)
	}

	// Registry full of unfinished topics: nothing evictable.
	b.Publish("b", stream.Event{Kind: stream.KindHop})
	if _, err := b.Subscribe("c", stream.SubOptions{}); !errors.Is(err, stream.ErrTooManyTopics) {
		t.Fatalf("3rd topic: %v, want ErrTooManyTopics", err)
	}

	// Finishing one admits the next; its straggler ends with "evicted".
	b.Publish("a", stream.Event{Kind: stream.KindEnd, Reason: "done"})
	b.Finish("a")
	if _, err := b.Subscribe("c", stream.SubOptions{}); err != nil {
		t.Fatalf("topic after eviction: %v", err)
	}
	for _, s := range []*stream.Sub{s2, s3} {
		evs := drain(t, s)
		last := evs[len(evs)-1]
		if last.Kind != stream.KindEnd || last.Reason != "evicted" {
			t.Fatalf("straggler's last event = %+v, want end/evicted", last)
		}
	}
}

// TestFilter: a filtered subscription sees only admitted events, and
// filtered-out events never count against its ledger.
func TestFilter(t *testing.T) {
	b := stream.New(stream.Options{})
	sub, err := b.Subscribe("t", stream.SubOptions{
		Filter: func(ev stream.Event) bool { return ev.User == "alice" },
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Publish("t", stream.Event{Kind: stream.KindMeasurement, User: "alice"})
	b.Publish("t", stream.Event{Kind: stream.KindMeasurement, User: "bob"})
	b.Publish("t", stream.Event{Kind: stream.KindMeasurement, User: "alice"})
	evs := drain(t, sub)
	if len(evs) != 2 {
		t.Fatalf("filtered subscription got %d events, want 2", len(evs))
	}
	if st := sub.Stats(); st.Offered != 2 {
		t.Fatalf("filtered-out events counted as offered: %+v", st)
	}
	sub.Close()
}

// TestNextBlocking: Next wakes on publish and honors context
// cancellation.
func TestNextBlocking(t *testing.T) {
	b := stream.New(stream.Options{})
	sub, err := b.Subscribe("t", stream.SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Publish("t", stream.Event{Kind: stream.KindHop, Hop: "h"})
	}()
	ev, err := sub.Next(context.Background())
	if err != nil || ev.Hop != "h" {
		t.Fatalf("Next = %+v, %v", ev, err)
	}
	wg.Wait()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next on cancelled ctx: %v", err)
	}
	sub.Close()
}

// TestConcurrentPublish: racing publishers, subscribers, and closers
// never deadlock or panic, and every ledger balances (run under -race).
func TestConcurrentPublish(t *testing.T) {
	b := stream.New(stream.Options{SubBuffer: 8})
	var wg sync.WaitGroup
	subs := make([]*stream.Sub, 8)
	for i := range subs {
		s, err := b.Subscribe("t", stream.SubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish("t", stream.Event{Kind: stream.KindHop})
			}
		}()
	}
	for _, s := range subs[:4] {
		wg.Add(1)
		go func(s *stream.Sub) {
			defer wg.Done()
			for {
				_, ok, err := s.TryNext()
				if err != nil {
					return
				}
				if !ok {
					st := s.Stats()
					if st.Delivered+st.Dropped >= 2000 {
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for i, s := range subs {
		st := s.Stats()
		if st.Offered != st.Delivered+st.Dropped+uint64(st.Buffered)+st.Gaps*0 {
			t.Fatalf("sub %d ledger does not balance: %+v", i, st)
		}
		s.Close()
	}
}

// TestEndSurvivesFullRing: terminating a subscription whose ring is full
// drops the oldest buffered event, never the end: the consumer is woken
// and reads a gap, the survivor and the end, then ErrClosed, and the
// ledger still balances.
func TestEndSurvivesFullRing(t *testing.T) {
	b := stream.New(stream.Options{SubBuffer: 2})
	topic := stream.BatchTopic("b7")
	if topic != "batch/b7" {
		t.Fatalf("BatchTopic(b7) = %q", topic)
	}
	sub, err := b.Subscribe(topic, stream.SubOptions{Owner: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := b.Subscribe(stream.Firehose, stream.SubOptions{Owner: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if n := b.Subscribers(); n != 2 {
		t.Fatalf("Subscribers() = %d, want 2", n)
	}
	b.Publish(topic, stream.Event{Kind: stream.KindHop})
	b.Publish(topic, stream.Event{Kind: stream.KindHop})
	<-sub.Ready() // drain the publish wakeup
	if n := sub.Buffered(); n != 2 {
		t.Fatalf("Buffered() = %d before termination, want 2", n)
	}

	b.CloseUser("alice", "revoked")
	select {
	case <-sub.Ready():
	default:
		t.Fatal("termination did not wake the consumer")
	}
	if n := sub.Buffered(); n != 3 {
		t.Fatalf("Buffered() = %d after termination, want 3 (gap, survivor, end)", n)
	}
	if n := b.Subscribers(); n != 1 {
		t.Fatalf("Subscribers() = %d after CloseUser, want 1", n)
	}
	evs := drain(t, sub)
	if len(evs) != 3 || evs[0].Kind != stream.KindGap || evs[0].Gap != 1 ||
		evs[1].ID != 2 || evs[2].Kind != stream.KindEnd || evs[2].Reason != "revoked" {
		t.Fatalf("events after a full-ring termination: %+v", evs)
	}
	if _, _, err := sub.TryNext(); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("TryNext after the end: %v, want ErrClosed", err)
	}
	if st := sub.Stats(); st.Offered != st.Delivered+st.Dropped+uint64(st.Buffered) || st.Dropped != 1 {
		t.Fatalf("ledger after a full-ring termination: %+v", st)
	}
}
