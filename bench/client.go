package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is how many closed-loop callers drive the server.
func numClients() int { return min(runtime.NumCPU(), 4) }

// watchdog bounds one request; past it the request's jobs count as failed.
const watchdog = 60 * time.Second

// Terminal job states as the final batch status spells them.
var stateMarkers = [...][]byte{
	[]byte(`"state":"done"`), []byte(`"state":"coalesced"`),
	[]byte(`"state":"failed"`), []byte(`"state":"shed"`),
}

const (
	stDone = iota
	stCoalesced
	stFailed
	stShed
	numStates
)

var (
	markEnd      = []byte(`"kind":"end"`)
	markState    = []byte(`"kind":"state"`)
	markBatchID  = []byte(`"batchId":"`)
	markID       = []byte(`"id":`)
	markJob      = []byte(`"job":`)
	markDoneTrue = []byte(`"done":true`)
)

// client is one closed-loop caller: it sends its next request only
// after the previous one completed, over one connection. Responses are
// scanned for markers with bytes matching, never unmarshalled — the
// outputs are checked in full from the archive after each day.
type client struct {
	hc   *http.Client
	base string
	keys []string
	wl   *workload
	tr   *tracer // nil outside the traced pass
	buf  bytes.Buffer
	br   *bufio.Reader
	lat  []int64 // request latencies, ns
	// Latency sum and count of the requests that recorded spans.
	tracedNS, tracedN int64
	ids               []int // measurement IDs this client was handed today (sync)
	state             [numStates]int
	// failed counts jobs that failed, were shed, came back non-2xx, hit
	// the watchdog, or whose batch never reported them terminal.
	failed int
	nreq   int
	err    error // first failure, for the report
	// earlyEnds counts event streams that ended before their batch was
	// done; the client then polls, as revtr-client does.
	earlyEnds int
}

func newClient(s *server, wl *workload, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: s.ts.URL, keys: s.keys, wl: wl, tr: tr,
		br: bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) fail(jobs int, err error) {
	c.failed += jobs
	if c.err == nil {
		c.err = err
	}
}

// do sends one HTTP request and leaves the open response to the caller.
func (c *client) do(ctx context.Context, method, path, key string, body []byte, reqID int64) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-API-Key", key)
	if reqID != 0 {
		req.Header.Set(traceHeader, strconv.Itoa(int(reqID)))
	}
	return c.hc.Do(req)
}

// fetch sends one request and reads the whole response into c.buf.
func (c *client) fetch(ctx context.Context, method, path, key string, body []byte, want int, reqID int64) error {
	resp, err := c.do(ctx, method, path, key, body, reqID)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
	}
	return nil
}

// run performs one request of the workload and records its latency. In
// the traced pass every other request records spans (traced): the two
// kinds then share the same seconds of the same server, and the ratio
// of their mean latencies is the tracing overhead, free of the box's
// drift.
func (c *client) run(ctx context.Context, rq *request, traced bool) {
	ctx, cancel := context.WithTimeout(ctx, watchdog)
	defer cancel()
	var reqID int64 // 0: this request is not traced
	if traced {
		reqID = c.tr.beginRequest(rq.pairs)
	}
	start := now()
	var err error
	if c.wl.sync {
		err = c.syncRevtr(ctx, rq, reqID)
	} else {
		err = c.batch(ctx, rq, reqID)
	}
	took := sinceNS(start)
	c.lat = append(c.lat, took)
	if traced {
		c.tr.endRequest(reqID, start, rq.pairs)
		c.tracedNS += took
		c.tracedN++
	}
	if err != nil {
		c.fail(len(rq.pairs), err)
	}
	c.nreq++
	if c.wl.sync && err == nil && c.nreq%4 == 0 {
		// Read an earlier result of this client back by ID.
		id := c.ids[(c.nreq*2654435761)%len(c.ids)]
		if err := c.fetch(ctx, http.MethodGet, "/api/v1/revtr/"+strconv.Itoa(id), c.keys[0], nil, http.StatusOK, 0); err != nil {
			c.fail(0, err)
		}
	}
}

func (c *client) syncRevtr(ctx context.Context, rq *request, reqID int64) error {
	if err := c.fetch(ctx, http.MethodPost, "/api/v1/revtr", c.keys[rq.user], rq.body, http.StatusOK, reqID); err != nil {
		return err
	}
	id, ok := scanInt(c.buf.Bytes(), markID)
	if !ok {
		return errors.New("sync response carries no measurement id")
	}
	c.ids = append(c.ids, id)
	c.state[stDone]++
	return nil
}

func (c *client) batch(ctx context.Context, rq *request, reqID int64) error {
	key := c.keys[rq.user]
	if err := c.fetch(ctx, http.MethodPost, "/api/v1/batch", key, rq.body, http.StatusAccepted, reqID); err != nil {
		return err
	}
	b := c.buf.Bytes()
	i := bytes.Index(b, markBatchID)
	if i < 0 {
		return errors.New("batch response carries no batchId")
	}
	b = b[i+len(markBatchID):]
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return errors.New("batch response: unterminated batchId")
	}
	path := "/api/v1/batch/" + string(b[:j])

	// Like revtr-client: a batch served whole from the day cache is done
	// in its 202; otherwise follow it to its end event, fetch the final
	// status (every job's terminal state and result), and poll with
	// backoff if the stream ended before the batch did.
	if !bytes.Contains(b, markDoneTrue) {
		if err := c.follow(ctx, path, key, rq, reqID); err != nil {
			return err
		}
		if err := c.fetch(ctx, http.MethodGet, path, key, nil, http.StatusOK, 0); err != nil {
			return err
		}
		if !bytes.Contains(c.buf.Bytes(), markDoneTrue) {
			c.earlyEnds++
		}
		for wait := time.Millisecond; !bytes.Contains(c.buf.Bytes(), markDoneTrue); wait = min(2*wait, 16*time.Millisecond) {
			select {
			case <-ctx.Done():
				return fmt.Errorf("batch %s: not done at the watchdog", path)
			case <-time.After(wait):
			}
			if err := c.fetch(ctx, http.MethodGet, path, key, nil, http.StatusOK, 0); err != nil {
				return err
			}
		}
	}
	b = c.buf.Bytes()
	terminal := 0
	for st, m := range stateMarkers {
		n := bytes.Count(b, m)
		c.state[st] += n
		terminal += n
		if st == stFailed || st == stShed {
			c.failed += n
		}
	}
	if terminal != len(rq.pairs) {
		return fmt.Errorf("batch %s: %d of %d jobs terminal in the final status", path, terminal, len(rq.pairs))
	}
	return nil
}

// follow reads the batch's NDJSON event stream up to its end event.
func (c *client) follow(ctx context.Context, path, key string, rq *request, reqID int64) error {
	resp, err := c.do(ctx, http.MethodGet, path+"/events", key, nil, 0)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/events: status %d", path, resp.StatusCode)
	}
	c.br.Reset(resp.Body)
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			return fmt.Errorf("GET %s/events: stream closed before its end event: %w", path, err)
		}
		if bytes.Contains(line, markEnd) {
			return nil
		}
		if reqID != 0 && bytes.Contains(line, markState) {
			c.traceDelivery(line, rq, reqID)
		}
	}
}

// traceDelivery closes a job's stream.deliver span when its terminal
// state line reaches the client (traced pass only).
func (c *client) traceDelivery(line []byte, rq *request, reqID int64) {
	terminal := false
	for _, m := range stateMarkers {
		if bytes.Contains(line, m) {
			terminal = true
			break
		}
	}
	if !terminal {
		return
	}
	if job, ok := scanInt(line, markJob); ok && job >= 0 && job < len(rq.pairs) {
		c.tr.delivered(reqID, rq.pairs[job])
	}
}

// scanInt parses the decimal integer that follows marker in b.
func scanInt(b, marker []byte) (int, bool) {
	i := bytes.Index(b, marker)
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, ch := range b[i+len(marker):] {
		if ch < '0' || ch > '9' {
			break
		}
		n = n*10 + int(ch-'0')
		digits++
	}
	return n, digits > 0
}

// runDay drives one day's requests from the closed-loop clients and
// returns its wall time. Requests are handed out in order from a shared
// counter, so the order the server sees depends only on the seed and on
// which client frees up first.
func runDay(ctx context.Context, clients []*client, reqs []request) time.Duration {
	for _, c := range clients {
		c.ids = c.ids[:0]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				c.run(ctx, &reqs[i], c.tr != nil && i%2 == 0)
			}
		}(c)
	}
	wg.Wait()
	return now().Sub(start)
}
