// Package stream is the progress-streaming layer: a stdlib-only
// pub/sub broker that fans measurement progress events (hop reveals,
// technique fallbacks, scheduler state transitions, completed
// measurements) out to HTTP subscribers without ever blocking the
// measurement path.
//
// The backpressure contract is strict and one-sided: publishers never
// wait. Every subscriber owns a fixed-size ring; when it overflows the
// oldest buffered events are dropped, the drop is counted
// (stream_dropped_total{reason="slow-subscriber"}), and the subscriber
// receives an explicit synthetic "gap" event carrying the count at the
// position of the loss — a slow reader learns exactly how much it
// missed, and a stalled reader costs the system nothing but its ring.
//
// Every topic keeps a small replay window of its newest events with
// monotonically increasing per-topic delivery IDs, so a reconnecting
// subscriber can resume after the last ID it saw (Last-Event-ID); a
// resume point that has slid out of the window is reported as a
// leading gap, never silently skipped. The window is one ring of
// Options.Replay slots allocated with the topic, so a full window
// costs a publish nothing, and a finished topic's terminal "end" is
// simply its newest event.
//
// The broker spawns no goroutines: consumption is a non-blocking
// TryNext plus a notification channel (or the blocking Next
// convenience wrapper), so an HTTP handler pumps events from its own
// request goroutine and nothing outlives the request.
package stream

import (
	"context"
	"errors"
	"sync"

	"revtr/internal/obs"
)

// Event kinds. Per-measurement progress kinds (started..cancelled)
// carry deterministic per-measurement sequence numbers and virtual
// timestamps; broker kinds (state, gap, end) are stamped only with the
// per-topic delivery ID.
const (
	// KindStarted opens a measurement's event sequence (src, dst).
	KindStarted = "started"
	// KindHop is one revealed reverse hop (hop, technique, spliced).
	KindHop = "hop"
	// KindSpliced precedes the hop events of a memoized suffix adopted
	// from the segment store; Count is the spliced chain length.
	KindSpliced = "spliced"
	// KindFallback marks a technique giving up and the next one taking
	// over; Tech names the technique being fallen back to.
	KindFallback = "fallback"
	// KindVPFailover marks a vantage point observed dead and skipped;
	// Hop carries the VP address.
	KindVPFailover = "vp-failover"
	// KindDone/KindAborted/KindFailed/KindCancelled close a
	// measurement's event sequence, mirroring its Result status.
	KindDone      = "done"
	KindAborted   = "aborted"
	KindFailed    = "failed"
	KindCancelled = "cancelled"
	// KindState is a scheduler job lifecycle transition
	// (queued → running → coalesced/done/failed/shed).
	KindState = "state"
	// KindGap is synthesized by the broker where events were dropped
	// (slow subscriber) or are unreplayable (resume point out of
	// window); Gap is the number of events missed.
	KindGap = "gap"
	// KindMeasurement is one completed measurement on the firehose.
	KindMeasurement = "measurement"
	// KindEnd terminates a stream: the batch finished, the subscriber's
	// user was revoked, or the server is shutting down (see Reason).
	KindEnd = "end"
)

// Firehose is the well-known topic carrying every completed
// measurement server-wide. Batch topics are named by BatchTopic.
const Firehose = "firehose"

// BatchTopic names the per-batch progress topic.
func BatchTopic(batchID string) string { return "batch/" + batchID }

// Event is one streamed progress event — the NDJSON wire format of the
// /events and /firehose endpoints. Fields are populated per kind; Job
// is meaningful only on batch-topic per-job kinds.
type Event struct {
	// ID is the per-topic delivery sequence number, the resume cursor
	// for Last-Event-ID reconnects. Synthetic events (gap) carry none.
	ID   uint64 `json:"id,omitempty"`
	Kind string `json:"kind"`
	// Seq is the per-measurement deterministic sequence number: for a
	// fixed seed it is bit-identical across workers=1/N and across the
	// blocking and asynchronous measurement paths.
	Seq uint64 `json:"seq,omitempty"`
	// VirtUS is the measurement's accumulated virtual probing time at
	// emission — deterministic, unlike any wall clock.
	VirtUS  int64  `json:"virtualUs,omitempty"`
	Batch   string `json:"batch,omitempty"`
	Job     int    `json:"job"`
	User    string `json:"user,omitempty"`
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Hop     string `json:"hop,omitempty"`
	Tech    string `json:"technique,omitempty"`
	Spliced bool   `json:"spliced,omitempty"`
	// Count is the spliced chain length on KindSpliced events.
	Count int `json:"count,omitempty"`
	// State is the scheduler job state on KindState events.
	State  string `json:"state,omitempty"`
	Status string `json:"status,omitempty"`
	// Reason qualifies KindEnd ("done", "revoked", "shutdown", "evicted")
	// and says why a KindAborted or KindFailed measurement stopped (hop
	// budget, no or revisited penultimate hop, a symmetry assumption the
	// policy forbids); empty on KindDone and KindCancelled.
	Reason string `json:"reason,omitempty"`
	// Gap is the number of events missed on KindGap events.
	Gap uint64 `json:"gap,omitempty"`
	Err string `json:"error,omitempty"`
	// Result carries the archived measurement on KindMeasurement events.
	Result any `json:"result,omitempty"`
}

var (
	// ErrClosed reports a subscription whose stream has terminated (its
	// ring is drained and no further events will arrive).
	ErrClosed = errors.New("stream: subscription closed")
	// ErrShutdown rejects subscriptions on a broker that was shut down.
	ErrShutdown = errors.New("stream: broker shut down")
	// ErrTooManySubscribers rejects subscriptions past the per-topic cap.
	ErrTooManySubscribers = errors.New("stream: too many subscribers on topic")
	// ErrTooManyTopics rejects subscriptions when the topic registry is
	// full and nothing finished is evictable.
	ErrTooManyTopics = errors.New("stream: topic registry full")
)

// Options tunes the broker.
type Options struct {
	// SubBuffer is each subscriber's ring capacity; overflow drops the
	// oldest buffered events and synthesizes a gap. <= 0 means 256.
	SubBuffer int
	// Replay is the per-topic replay window (newest events retained for
	// Last-Event-ID resume and subscribe-after-done). <= 0 means 64.
	Replay int
	// MaxSubs bounds subscribers per topic. <= 0 means 64.
	MaxSubs int
	// MaxTopics bounds the topic registry; finished topics are evicted
	// oldest-first to admit new ones. <= 0 means 4096.
	MaxTopics int
	// Obs receives the stream_* metric family; nil disables metrics.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SubBuffer <= 0 {
		o.SubBuffer = 256
	}
	if o.Replay <= 0 {
		o.Replay = 64
	}
	if o.MaxSubs <= 0 {
		o.MaxSubs = 64
	}
	if o.MaxTopics <= 0 {
		o.MaxTopics = 4096
	}
	return o
}

// topic is one event stream: its replay window, delivery-ID counter,
// and attached subscribers. Lock order: Broker.mu → topic.mu → Sub.mu.
type topic struct {
	name string

	mu     sync.Mutex
	nextID uint64
	subs   []*Sub
	// replay is the window of the newest events: a ring of
	// Options.Replay slots, event ID i in slot (i-1) mod len. It holds
	// min(nextID, len) events, so the oldest is at the head, slot
	// nextID mod len once the ring has wrapped.
	replay []Event
	done   bool
}

// Broker is the pub/sub fan-out. Safe for concurrent use; Publish
// never blocks on subscribers.
type Broker struct {
	opts Options

	mu       sync.Mutex
	topics   map[string]*topic
	order    []string // topic creation order, for eviction
	shutdown bool

	subs *obs.Gauge
	gaps *obs.Counter
	// delivered counts real (non-synthetic) events handed to consumers.
	delivered *obs.Counter
	// events and dropped pre-resolve the labelled counters for the
	// closed sets of kinds and drop reasons (obsnames: the base names
	// are compile-time constants, registered once, here).
	events  map[string]*obs.Counter
	dropped map[string]*obs.Counter
}

// Drop reasons on stream_dropped_total.
const (
	dropSlowSubscriber = "slow-subscriber"
	dropUnsubscribed   = "unsubscribed"
	dropShutdown       = "shutdown"
	dropTopicsCapped   = "topics-capped"
)

// New builds a broker. Metrics land in opts.Obs (nil-safe).
func New(opts Options) *Broker {
	opts = opts.withDefaults()
	b := &Broker{
		opts:      opts,
		topics:    make(map[string]*topic),
		subs:      opts.Obs.Gauge("stream_subscribers"),
		gaps:      opts.Obs.Counter("stream_gap_events_total"),
		delivered: opts.Obs.Counter("stream_delivered_total"),
		events:    make(map[string]*obs.Counter),
		dropped:   make(map[string]*obs.Counter),
	}
	for _, k := range []string{
		KindStarted, KindHop, KindSpliced, KindFallback, KindVPFailover,
		KindDone, KindAborted, KindFailed, KindCancelled,
		KindState, KindGap, KindMeasurement, KindEnd,
	} {
		b.events[k] = opts.Obs.Counter(obs.Label("stream_events_total", "kind", k))
	}
	for _, reason := range []string{
		dropSlowSubscriber, dropUnsubscribed, dropShutdown, dropTopicsCapped,
	} {
		b.dropped[reason] = opts.Obs.Counter(obs.Label("stream_dropped_total", "reason", reason))
	}
	return b
}

// countEvent tallies one published event by kind.
func (b *Broker) countEvent(kind string) {
	if c, ok := b.events[kind]; ok {
		c.Inc()
	}
}

// countDropped tallies dropped events by reason.
func (b *Broker) countDropped(reason string, n uint64) {
	if n == 0 {
		return
	}
	if c, ok := b.dropped[reason]; ok {
		c.Add(n)
	}
}

// lookup resolves (or creates) a topic. A nil return means the event
// has nowhere to go: the broker is shut down, or the registry is full
// of unfinished topics.
func (b *Broker) lookup(name string, create bool) *topic {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shutdown {
		return nil
	}
	t := b.topics[name]
	if t != nil || !create {
		return t
	}
	if len(b.topics) >= b.opts.MaxTopics && !b.evictLocked() {
		return nil
	}
	t = &topic{name: name, replay: make([]Event, b.opts.Replay)}
	b.topics[name] = t
	b.order = append(b.order, name)
	return t
}

// evictLocked removes the oldest finished topic, closing any straggler
// subscribers with an "evicted" end event. Callers hold b.mu.
func (b *Broker) evictLocked() bool {
	for i, name := range b.order {
		t := b.topics[name]
		if t == nil {
			// Already deleted; compact the order lazily.
			b.order = append(b.order[:i], b.order[i+1:]...)
			return b.evictLocked()
		}
		t.mu.Lock()
		done := t.done
		var subs []*Sub
		if done {
			subs = t.subs
			t.subs = nil
		}
		t.mu.Unlock()
		if !done {
			continue
		}
		for _, s := range subs {
			s.terminate(Event{Kind: KindEnd, Job: -1, Reason: "evicted"}, b)
		}
		delete(b.topics, name)
		b.order = append(b.order[:i], b.order[i+1:]...)
		return true
	}
	return false
}

// Publish fans one event out to a topic's subscribers and appends it
// to the replay window. It never blocks: slow subscribers overflow
// their rings and gap. Publishing to a shut-down broker (or into a
// full registry) drops the event.
func (b *Broker) Publish(topicName string, ev Event) {
	t := b.lookup(topicName, true)
	if t == nil {
		b.countDropped(chooseDropReason(b), 1)
		return
	}
	t.mu.Lock()
	t.nextID++
	ev.ID = t.nextID
	t.replay[(ev.ID-1)%uint64(len(t.replay))] = ev
	subs := t.subs
	for _, s := range subs {
		s.offer(ev, b)
	}
	t.mu.Unlock()
	b.countEvent(ev.Kind)
}

// chooseDropReason classifies a Publish that found no topic.
func chooseDropReason(b *Broker) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shutdown {
		return dropShutdown
	}
	return dropTopicsCapped
}

// Finish marks a topic complete: no further events are expected and
// the topic becomes evictable. The terminal end event must have been
// published first; Finish itself publishes nothing.
func (b *Broker) Finish(topicName string) {
	t := b.lookup(topicName, false)
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
}

// SubOptions configures one subscription.
type SubOptions struct {
	// Owner ties the subscription to an API key: CloseUser(owner)
	// terminates every subscription it owns (user revocation).
	Owner string
	// AfterID resumes delivery after a per-topic delivery ID: replayed
	// events with ID <= AfterID are skipped. 0 replays the whole
	// retained window; negative subscribes live-only (no replay). A
	// resume point older than the window yields a leading gap event.
	AfterID int64
	// Filter, when set, admits only matching events (firehose scoping).
	// It must be pure; it runs under the topic lock on the publish path.
	Filter func(Event) bool
}

// Subscribe attaches a subscriber to a topic, prefilling its ring from
// the replay window per opts.AfterID.
func (b *Broker) Subscribe(topicName string, opts SubOptions) (*Sub, error) {
	t := b.lookup(topicName, true)
	if t == nil {
		b.mu.Lock()
		down := b.shutdown
		b.mu.Unlock()
		if down {
			return nil, ErrShutdown
		}
		return nil, ErrTooManyTopics
	}
	s := &Sub{
		topic:  t,
		broker: b,
		owner:  opts.Owner,
		filter: opts.Filter,
		buf:    make([]Event, b.opts.SubBuffer),
		notify: make(chan struct{}, 1),
	}
	t.mu.Lock()
	if len(t.subs) >= b.opts.MaxSubs {
		t.mu.Unlock()
		return nil, ErrTooManySubscribers
	}
	t.subs = append(t.subs, s)
	if opts.AfterID >= 0 {
		after, size := uint64(opts.AfterID), uint64(len(t.replay))
		oldest := t.nextID - min(t.nextID, size) + 1
		if oldest > after+1 {
			// The resume point slid out of the window: everything
			// between it and the oldest retained event is lost.
			s.pendingGap += oldest - after - 1
		}
		for id := max(oldest, after+1); id <= t.nextID; id++ {
			s.offer(t.replay[(id-1)%size], b)
		}
	}
	t.mu.Unlock()
	b.subs.Add(1)
	return s, nil
}

// CloseUser terminates every subscription owned by owner across all
// topics with an end event carrying reason — the revocation hook: a
// revoked key's streams end explicitly instead of idling forever.
func (b *Broker) CloseUser(owner, reason string) {
	b.mu.Lock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	for _, t := range topics {
		var closing []*Sub
		t.mu.Lock()
		kept := t.subs[:0]
		for _, s := range t.subs {
			if s.owner == owner {
				closing = append(closing, s)
				continue
			}
			kept = append(kept, s)
		}
		t.subs = kept
		t.mu.Unlock()
		for _, s := range closing {
			s.terminate(Event{Kind: KindEnd, Job: -1, Reason: reason}, b)
		}
	}
}

// Shutdown terminates every subscription with an end event and rejects
// all future publishes and subscriptions. Call before http.Server
// Shutdown: streaming handlers hold their connections open until their
// subscription ends, and Shutdown waits for active connections.
func (b *Broker) Shutdown() {
	b.mu.Lock()
	if b.shutdown {
		b.mu.Unlock()
		return
	}
	b.shutdown = true
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.topics = make(map[string]*topic)
	b.order = nil
	b.mu.Unlock()
	for _, t := range topics {
		t.mu.Lock()
		subs := t.subs
		t.subs = nil
		t.mu.Unlock()
		for _, s := range subs {
			s.terminate(Event{Kind: KindEnd, Job: -1, Reason: "shutdown"}, b)
		}
	}
}

// Subscribers reports the current subscriber count across all topics.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	topics := make([]*topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	n := 0
	for _, t := range topics {
		t.mu.Lock()
		n += len(t.subs)
		t.mu.Unlock()
	}
	return n
}

// SubStats is one subscription's delivery ledger. The conservation
// invariant — checked by the backpressure tests — is
// Offered == Delivered + Dropped + Buffered.
type SubStats struct {
	// Offered counts events the publish path accepted for this
	// subscriber (post-filter), including any replay prefill.
	Offered uint64
	// Delivered counts real events handed out by TryNext/Next
	// (synthetic gap events are counted in Gaps instead).
	Delivered uint64
	// Dropped counts events lost to ring overflow or discarded
	// unconsumed at close.
	Dropped uint64
	// Buffered is the ring's current occupancy.
	Buffered int
	// Gaps counts synthetic gap events delivered.
	Gaps uint64
}

// Sub is one subscription: a fixed ring of undelivered events plus a
// wakeup channel. One consumer goroutine at a time.
type Sub struct {
	topic  *topic
	broker *Broker
	owner  string
	filter func(Event) bool

	mu         sync.Mutex
	buf        []Event // fixed-capacity ring
	head, n    int
	pendingGap uint64
	closed     bool

	offered, delivered, dropped, gaps uint64

	notify chan struct{}
}

// offer enqueues one event without blocking, dropping the oldest
// buffered event (and accounting a gap) on overflow. Called with
// t.mu held on the publish path.
func (s *Sub) offer(ev Event, b *Broker) {
	if s.filter != nil && !s.filter(ev) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.offered++
	if s.n == len(s.buf) {
		// Ring full: the oldest event gives way and the loss surfaces
		// as a pending gap delivered before the survivors.
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		s.pendingGap++
		b.countDropped(dropSlowSubscriber, 1)
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	s.wake()
}

// terminate force-appends a terminal end event and closes the
// subscription: the consumer drains the ring (ending with the end
// event) and then sees ErrClosed. The caller already detached s from
// its topic.
func (s *Sub) terminate(end Event, b *Broker) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		s.pendingGap++
		b.countDropped(dropSlowSubscriber, 1)
	}
	s.offered++
	s.buf[(s.head+s.n)%len(s.buf)] = end
	s.n++
	s.mu.Unlock()
	b.countEvent(KindEnd)
	b.subs.Add(-1)
	s.wake()
}

// wake nudges the consumer (non-blocking; the channel holds one token).
func (s *Sub) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Ready returns the wakeup channel: it receives after new events are
// buffered or the subscription closes. Pair with TryNext:
//
//	for {
//	    ev, ok, err := sub.TryNext()
//	    switch { case err != nil: return; case ok: handle(ev); continue }
//	    select { case <-ctx.Done(): return; case <-sub.Ready(): }
//	}
func (s *Sub) Ready() <-chan struct{} { return s.notify }

// TryNext pops the next event without blocking. ok reports whether an
// event was returned; ErrClosed means the stream terminated and the
// ring is drained. Pending gaps are delivered first, as synthetic
// KindGap events, at the position of the loss.
func (s *Sub) TryNext() (Event, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingGap > 0 {
		g := s.pendingGap
		s.pendingGap = 0
		s.gaps++
		s.broker.gaps.Inc()
		return Event{Kind: KindGap, Gap: g}, true, nil
	}
	if s.n == 0 {
		if s.closed {
			return Event{}, false, ErrClosed
		}
		return Event{}, false, nil
	}
	ev := s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.delivered++
	s.broker.delivered.Inc()
	return ev, true, nil
}

// Next blocks for the next event until ctx ends. It returns ErrClosed
// once the stream terminates and the ring is drained.
func (s *Sub) Next(ctx context.Context) (Event, error) {
	for {
		ev, ok, err := s.TryNext()
		if err != nil {
			return Event{}, err
		}
		if ok {
			return ev, nil
		}
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// Buffered reports the ring's current occupancy (plus any pending gap
// event).
func (s *Sub) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	if s.pendingGap > 0 {
		n++
	}
	return n
}

// Stats snapshots the subscription's delivery ledger.
func (s *Sub) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{
		Offered:   s.offered,
		Delivered: s.delivered,
		Dropped:   s.dropped,
		Buffered:  s.n,
		Gaps:      s.gaps,
	}
}

// Close detaches the subscription from its topic and releases it.
// Unconsumed buffered events are accounted as dropped ("unsubscribed")
// so the ledger still balances. Idempotent; safe after terminate.
func (s *Sub) Close() {
	t := s.topic
	t.mu.Lock()
	for i, other := range t.subs {
		if other == s {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	discarded := uint64(s.n)
	s.dropped += discarded
	s.n = 0
	s.pendingGap = 0
	s.mu.Unlock()
	s.broker.countDropped(dropUnsubscribed, discarded)
	if !already {
		s.broker.subs.Add(-1)
	}
	s.wake()
}
