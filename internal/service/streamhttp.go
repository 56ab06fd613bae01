// Streaming HTTP endpoints: per-batch progress events and the
// server-wide measurement firehose, both NDJSON over chunked transfer.
//
//	GET /api/v1/batch/{id}/events   follow one batch hop-by-hop
//	GET /api/v1/firehose            follow completed measurements
//
// Both handlers pump a broker subscription from the request goroutine
// (the stream package spawns no goroutines), write one JSON event per
// line, flush between bursts, and keep idle connections alive with
// heartbeat lines. They end on: a terminal "end" event (batch done,
// user revoked, broker shutdown), client disconnect (request context),
// or an encoder error. A stalled client only ever overflows its own
// subscription ring — measurements and other subscribers are never
// delayed.
package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"revtr/internal/stream"
)

// ErrStreamDisabled rejects streaming requests on a registry without
// an attached broker (EnableStream was never called).
var ErrStreamDisabled = errors.New("service: streaming not enabled")

// defaultHeartbeat paces keep-alive lines on idle event streams
// (/events, /firehose), keeping them alive through proxies.
const defaultHeartbeat = 15 * time.Second

// defaultFirehoseReplay caps the ?replay= parameter of GET
// /api/v1/firehose (archived measurements served before going live).
const defaultFirehoseReplay = 64

// firehoseReplayScan is how many archived records, newest first, one
// ?replay= examines looking for its matches. Each costs a decode
// (≈ 9 µs), and a filter nothing matches — ?dst= an address never
// measured — would otherwise walk the whole day's retention on every
// connection. A filter's matches older than this are not replayed.
const firehoseReplayScan = 64 * defaultFirehoseReplay

// heartbeatLine is the raw NDJSON keep-alive record. It is not an
// Event: it carries no id and consumes no sequence number.
const heartbeatLine = "{\"kind\":\"heartbeat\"}\n"

// parseAfter resolves the resume cursor for a batch event stream: the
// Last-Event-ID header (set by reconnecting EventSource-style clients)
// or the ?after= query parameter. 0 means "replay the whole retained
// window".
func parseAfter(r *http.Request) (int64, bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0, true
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// handleBatchEvents streams one batch's lifecycle: scheduler state
// transitions, per-hop reveals, technique fallbacks, and a terminal
// "end" event once every job is terminal. Authorization mirrors
// GET /api/v1/batch/{id}: the submitting user or the admin key.
func (a *API) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		key = r.Header.Get("X-Admin-Key")
	}
	id := r.PathValue("id")
	st, err := a.reg.BatchStatus(key, id)
	if err != nil {
		writeErr(w, err)
		return
	}
	b := a.reg.Broker()
	if b == nil {
		writeErr(w, ErrStreamDisabled)
		return
	}
	after, ok := parseAfter(r)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad resume cursor"})
		return
	}
	sub, err := b.Subscribe(stream.BatchTopic(id), stream.SubOptions{Owner: key, AfterID: after})
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Close()

	// Subscribe-after-done with nothing retained (the topic was evicted,
	// or was never published because the batch predates EnableStream):
	// synthesize the terminal states from the status snapshot so a late
	// subscriber still gets a complete, well-terminated stream.
	var prelude []stream.Event
	if st.Done && after == 0 && sub.Buffered() == 0 {
		for _, j := range st.Jobs {
			ev := stream.Event{
				Kind: stream.KindState, Batch: id, Job: j.Index,
				Src: j.Src, Dst: j.Dst, State: j.State, Err: j.Error,
			}
			prelude = append(prelude, ev)
		}
		prelude = append(prelude, stream.Event{Kind: stream.KindEnd, Batch: id, Job: -1, Reason: "done"})
	}
	a.pumpEvents(w, r, sub, prelude)
}

// handleFirehose streams completed measurements server-wide. The admin
// key sees everything and may filter by ?user=, ?src=, ?dst=; a user
// key is scoped to its own measurements (its user filter is forced).
// ?replay=K first serves up to K of the newest archived measurements
// matching the filters, then switches to live events, deduplicating
// measurements that landed in both.
func (a *API) handleFirehose(w http.ResponseWriter, r *http.Request) {
	b := a.reg.Broker()
	if b == nil {
		writeErr(w, ErrStreamDisabled)
		return
	}
	adminKey := r.Header.Get("X-Admin-Key")
	key := r.Header.Get("X-API-Key")
	isAdmin := a.reg.isAdmin(adminKey) || a.reg.isAdmin(key)
	owner := key
	if owner == "" {
		owner = adminKey
	}
	q := r.URL.Query()
	userF, srcF, dstF := q.Get("user"), q.Get("src"), q.Get("dst")
	if !isAdmin {
		u, err := a.reg.Authenticate(key)
		if err != nil {
			writeErr(w, err)
			return
		}
		// Owner scoping: a non-admin subscriber sees only its own
		// measurements, whatever filter it asked for.
		userF = u.Name
	}
	replay := 0
	if raw := q.Get("replay"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad replay count"})
			return
		}
		replay = v
	}
	replay = min(replay, defaultFirehoseReplay)

	filter := func(ev stream.Event) bool {
		if userF != "" && ev.User != userF {
			return false
		}
		if srcF != "" && ev.Src != srcF {
			return false
		}
		if dstF != "" && ev.Dst != dstF {
			return false
		}
		return true
	}
	// Subscribe live-only before scanning the archive: anything
	// published during the scan is both in the scan result and in the
	// ring, and the ID-based dedupe below drops the ring copy.
	sub, err := b.Subscribe(stream.Firehose, stream.SubOptions{Owner: owner, AfterID: -1, Filter: filter})
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Close()

	var prelude []stream.Event
	lastReplayed := -1
	for _, m := range a.reg.replayMeasurements(replay, userF, srcF, dstF) {
		prelude = append(prelude, stream.Event{
			Kind: stream.KindMeasurement, Job: -1,
			User: m.User, Src: m.Src, Dst: m.Dst, Status: m.Status,
			Result: m,
		})
		if m.ID > lastReplayed {
			lastReplayed = m.ID
		}
	}
	a.pumpFiltered(w, r, sub, prelude, func(ev stream.Event) bool {
		if ev.Kind != stream.KindMeasurement {
			return true
		}
		m, ok := ev.Result.(*Measurement)
		return !ok || m.ID > lastReplayed
	})
}

// pumpEvents drives one subscription to the client as NDJSON: prelude
// first, then buffered and live events, heartbeats while idle.
func (a *API) pumpEvents(w http.ResponseWriter, r *http.Request, sub *stream.Sub, prelude []stream.Event) {
	a.pumpFiltered(w, r, sub, prelude, nil)
}

// pumpFiltered is pumpEvents with a client-side admit predicate (nil
// admits everything), used by the firehose to drop live duplicates of
// replayed measurements. Skipped events still count as delivered in
// the subscription ledger — they were consumed, just not written.
func (a *API) pumpFiltered(w http.ResponseWriter, r *http.Request, sub *stream.Sub, prelude []stream.Event, admit func(stream.Event) bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	// A stream outlives any write timeout the server sets for ordinary
	// responses: clear the deadline, or the connection is cut mid-stream
	// (a writer that cannot clear it has none to clear).
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)
	// A failed flush needs no handling here: the dead connection cancels
	// the request context or fails a later write, and either ends the pump.
	flush := func() { _ = rc.Flush() }
	enc := json.NewEncoder(w)
	for _, ev := range prelude {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	flush()

	ticker := time.NewTicker(a.heartbeat)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		ev, ok, err := sub.TryNext()
		switch {
		case err != nil:
			// ErrClosed: the stream terminated (the terminal end event,
			// if any, was already written) and the ring is drained.
			flush()
			return
		case ok:
			if admit != nil && !admit(ev) {
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if ev.Kind == stream.KindEnd {
				flush()
				return
			}
			continue
		}
		flush()
		select {
		case <-ctx.Done():
			return
		case <-sub.Ready():
		case <-ticker.C:
			if _, err := io.WriteString(w, heartbeatLine); err != nil {
				return
			}
			flush()
		}
	}
}
