package service_test

// End-to-end tests for the streaming surface: following a batch over
// NDJSON, backpressure isolation (a stalled subscriber never delays
// the measurement pipeline), resume cursors, subscribe-after-done,
// revocation and shutdown terminating streams, and firehose scoping.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"revtr"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// wireEvent mirrors stream.Event's NDJSON encoding for decoding test
// streams; Result stays raw.
type wireEvent struct {
	ID     uint64          `json:"id"`
	Kind   string          `json:"kind"`
	Seq    uint64          `json:"seq"`
	Batch  string          `json:"batch"`
	Job    int             `json:"job"`
	User   string          `json:"user"`
	Src    string          `json:"src"`
	Dst    string          `json:"dst"`
	Hop    string          `json:"hop"`
	Tech   string          `json:"technique"`
	State  string          `json:"state"`
	Status string          `json:"status"`
	Reason string          `json:"reason"`
	Gap    uint64          `json:"gap"`
	Err    string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// streamServer is httptestServer with fast heartbeats so idle-stream
// tests don't wait the production 15s interval.
func streamServer(t *testing.T, reg *service.Registry) string {
	t.Helper()
	api := service.NewAPI(reg)
	api.SetHeartbeat(25 * time.Millisecond)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts.URL
}

// openStream starts an NDJSON stream and feeds decoded lines to a
// channel that closes when the stream ends. The returned cancel
// disconnects the client.
func openStream(t *testing.T, url string, headers map[string]string) (<-chan wireEvent, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("stream content type %q", ct)
	}
	ch := make(chan wireEvent, 4096)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			var ev wireEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				ch <- ev
			}
		}
	}()
	return ch, cancel
}

// collectUntilEnd drains a stream channel until the terminal end event
// (heartbeats excluded), failing on timeout.
func collectUntilEnd(t *testing.T, ch <-chan wireEvent, timeout time.Duration) []wireEvent {
	t.Helper()
	var evs []wireEvent
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed before end event; got %d events", len(evs))
			}
			if ev.Kind == "heartbeat" {
				continue
			}
			evs = append(evs, ev)
			if ev.Kind == stream.KindEnd {
				return evs
			}
		case <-deadline:
			t.Fatalf("no end event within %v; got %d events", timeout, len(evs))
		}
	}
}

// nextEvent pulls one non-heartbeat event, failing on timeout or close.
func nextEvent(t *testing.T, ch <-chan wireEvent, timeout time.Duration) wireEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream closed")
			}
			if ev.Kind == "heartbeat" {
				continue
			}
			return ev
		case <-deadline:
			t.Fatal("no event within timeout")
		}
	}
}

// deploymentRegistry builds a streaming registry over the simulated
// deployment with one user and one registered source.
func deploymentRegistry(t *testing.T, streamOpts stream.Options) (*service.Registry, *service.User, *revtr.Deployment) {
	t.Helper()
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "admin-secret")
	reg.EnableStream(streamOpts)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sc := reg.EnableBatch(ctx, sched.Options{})
	t.Cleanup(func() {
		cancel()
		_ = sc.Drain(context.Background())
	})
	u, err := reg.AddUser("admin-secret", "alice", 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterSource(u.APIKey, d.PickSourceHost(0).Addr, false); err != nil {
		t.Fatal(err)
	}
	return reg, u, d
}

// batchSpecs builds n unique src→dst jobs against the deployment.
func batchSpecs(t *testing.T, d *revtr.Deployment, n int) []sched.JobSpec {
	t.Helper()
	src := d.PickSourceHost(0)
	var sp []sched.JobSpec
	hosts := d.OnePerPrefix()
	for i := 0; len(sp) < n && i < len(hosts) && i < 200; i++ {
		if hosts[i].AS == src.AS {
			continue
		}
		sp = append(sp, sched.JobSpec{Src: src.Addr, Dst: hosts[i].Addr})
	}
	if len(sp) < n {
		t.Fatalf("only %d destinations available", len(sp))
	}
	return sp
}

// TestStreamBatchFollowHTTP follows a real batch over the wire: hop
// events stream while measurements run, job states transition, and the
// stream self-terminates with end/done. Then the resume cursor is
// exercised: reconnecting with Last-Event-ID replays only later events.
func TestStreamBatchFollowHTTP(t *testing.T) {
	reg, u, d := deploymentRegistry(t, stream.Options{SubBuffer: 2048, Replay: 2048})
	ts := streamServer(t, reg)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, batchSpecs(t, d, 3))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	evs := collectUntilEnd(t, ch, 30*time.Second)

	last := evs[len(evs)-1]
	if last.Kind != stream.KindEnd || last.Reason != "done" {
		t.Fatalf("terminal event %s/%s, want end/done", last.Kind, last.Reason)
	}
	hops, terminal := 0, map[int]string{}
	var lastID uint64
	for _, ev := range evs {
		if ev.ID <= lastID {
			t.Fatalf("delivery IDs not increasing: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
		switch ev.Kind {
		case stream.KindHop:
			hops++
			if ev.Hop == "" || ev.Tech == "" {
				t.Fatalf("hop event missing hop/technique: %+v", ev)
			}
			if ev.Batch != st.ID || ev.Job < 0 {
				t.Fatalf("hop event missing batch coordinates: %+v", ev)
			}
		case stream.KindState:
			if ev.State == "done" || ev.State == "failed" || ev.State == "coalesced" || ev.State == "shed" {
				terminal[ev.Job] = ev.State
			}
		}
	}
	if hops == 0 {
		t.Fatal("no hop events streamed")
	}
	if len(terminal) != len(st.Jobs) {
		t.Fatalf("terminal states for %d/%d jobs: %v", len(terminal), len(st.Jobs), terminal)
	}

	// Resume from the middle of the stream: only later events replay,
	// still terminated by the retained end event.
	mid := evs[len(evs)/2].ID
	ch2, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey, "Last-Event-ID": strconv.FormatUint(mid, 10)})
	evs2 := collectUntilEnd(t, ch2, 10*time.Second)
	for _, ev := range evs2 {
		if ev.ID <= mid {
			t.Fatalf("resume after %d replayed event %d", mid, ev.ID)
		}
	}
	if evs2[len(evs2)-1].Kind != stream.KindEnd {
		t.Fatal("resumed stream not terminated")
	}
	if want := len(evs) - len(evs)/2 - 1; len(evs2) != want {
		t.Fatalf("resume replayed %d events, want %d", len(evs2), want)
	}

	// Authorization mirrors batch status: a stranger gets 404-shaped
	// errors, not someone else's progress.
	bob, err := reg.AddUser("admin-secret", "bob", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", ts+"/api/v1/batch/"+st.ID+"/events", nil)
	req.Header.Set("X-API-Key", bob.APIKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign subscriber: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamBackpressureStalledSubscriber: a subscriber that never
// consumes must not delay batch completion — its ring overflows,
// drop-oldest discards history, and on eventual drain it sees one gap
// event followed by the retained tail ending in end/done. The
// subscription ledger balances exactly: offered == delivered + dropped
// (+ buffered, zero after drain), with gaps accounted separately.
func TestStreamBackpressureStalledSubscriber(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 10000)
	broker := reg.EnableStream(stream.Options{SubBuffer: 8, Replay: 16})

	var last []int
	for i := 1; i <= 32; i++ {
		last = append(last, i)
	}
	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, last...))
	if err != nil {
		t.Fatal(err)
	}

	stalled, err := broker.Subscribe(stream.BatchTopic(st.ID), stream.SubOptions{Owner: u.APIKey})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// A live follower over HTTP shares the flood; it only has to stay
	// terminated, not lossless, with a ring of 8.
	ts := streamServer(t, reg)
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})

	start := time.Now() //revtr:wallclock test wall-clock bound
	close(bb.release)
	waitDone(t, reg, u.APIKey, st.ID)
	if el := time.Since(start); el > 5*time.Second { //revtr:wallclock test wall-clock bound
		t.Fatalf("batch with stalled subscriber took %v", el)
	}

	evs := collectUntilEnd(t, ch, 10*time.Second)
	if lastEv := evs[len(evs)-1]; lastEv.Reason != "done" {
		t.Fatalf("follower terminal reason %q", lastEv.Reason)
	}

	// Drain the stalled subscription after the fact: a single gap event
	// reports everything drop-oldest discarded, then the retained tail.
	var drained []stream.Event
	gaps := 0
	for {
		ev, ok, err := stalled.TryNext()
		if err != nil || !ok {
			break
		}
		drained = append(drained, ev)
		if ev.Kind == stream.KindGap {
			gaps++
			if ev.Gap == 0 {
				t.Fatal("gap event with zero count")
			}
			if len(drained) != 1 {
				t.Fatalf("gap event at position %d, want first", len(drained))
			}
		}
	}
	if gaps != 1 {
		t.Fatalf("%d gap events, want exactly 1", gaps)
	}
	if lastEv := drained[len(drained)-1]; lastEv.Kind != stream.KindEnd || lastEv.Reason != "done" {
		t.Fatalf("stalled drain terminal %s/%s, want end/done", lastEv.Kind, lastEv.Reason)
	}

	stats := stalled.Stats()
	if stats.Dropped == 0 {
		t.Fatal("stalled subscriber dropped nothing; backpressure untested")
	}
	if stats.Offered != stats.Delivered+stats.Dropped {
		t.Fatalf("ledger imbalance: offered %d != delivered %d + dropped %d",
			stats.Offered, stats.Delivered, stats.Dropped)
	}
	if stats.Buffered != 0 {
		t.Fatalf("%d events still buffered after drain", stats.Buffered)
	}
	if got := reg.Obs().Counter(obs.Label("stream_dropped_total", "reason", "slow-subscriber")).Value(); got < stats.Dropped {
		t.Fatalf("stream_dropped_total{slow-subscriber} = %d, want >= %d", got, stats.Dropped)
	}
}

// TestStreamOutlivesWriteTimeout: an event stream is not cut at the
// server's WriteTimeout. A batch held in flight while its follower, on a
// server whose WriteTimeout is 200 ms, receives three timeouts' worth of
// heartbeats still ends on its end event once the batch finishes.
func TestStreamOutlivesWriteTimeout(t *testing.T) {
	const writeTimeout, heartbeat = 200 * time.Millisecond, 25 * time.Millisecond
	reg, bb, u, src := batchRegistry(t, 100)
	reg.EnableStream(stream.Options{})
	api := service.NewAPI(reg)
	api.SetHeartbeat(heartbeat)
	ts := httptest.NewUnstartedServer(api)
	ts.Config.WriteTimeout = writeTimeout
	ts.Start()
	t.Cleanup(ts.Close)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := openStream(t, ts.URL+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	timeout := time.After(10 * time.Second)
	for beats := 0; beats < int(3*writeTimeout/heartbeat); {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream cut after %d heartbeats (%v of %v)", beats, time.Duration(beats)*heartbeat, writeTimeout)
			}
			if ev.Kind == "heartbeat" {
				beats++
			}
		case <-timeout:
			t.Fatalf("only %d heartbeats within 10s", beats)
		}
	}
	close(bb.release)
	evs := collectUntilEnd(t, ch, 10*time.Second)
	if last := evs[len(evs)-1]; last.Reason != "done" {
		t.Fatalf("terminal event %s/%s, want end/done", last.Kind, last.Reason)
	}
}

// TestStreamEndAfterLateJob: a batch whose first job resolves from the
// day cache at admission still has a job to run. Its follower must get
// that job's terminal line before the end event, not an end published
// while the job was still queued.
func TestStreamEndAfterLateJob(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 10000)
	reg.EnableStream(stream.Options{SubBuffer: 64, Replay: 64})
	close(bb.release)

	warm, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, reg, u.APIKey, warm.ID)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs[0].State != "coalesced" {
		t.Fatalf("job 0 admitted as %q, want a day-cache hit", st.Jobs[0].State)
	}
	waitDone(t, reg, u.APIKey, st.ID)

	ts := streamServer(t, reg)
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	evs := collectUntilEnd(t, ch, 10*time.Second)
	for _, ev := range evs {
		if ev.Kind == stream.KindState && ev.Job == 1 && ev.State == "done" {
			return
		}
	}
	t.Fatalf("end arrived before the fresh job's terminal line: %+v", evs)
}

// TestStreamSubscribeAfterDoneReplay: subscribing after completion
// while the topic's replay window survives serves the retained events,
// IDs intact, terminated by the retained end event.
func TestStreamSubscribeAfterDoneReplay(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	reg.EnableStream(stream.Options{Replay: 256})
	close(bb.release)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, reg, u.APIKey, st.ID)

	ts := streamServer(t, reg)
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	evs := collectUntilEnd(t, ch, 10*time.Second)
	if evs[0].ID == 0 {
		t.Fatal("replayed events carry no delivery IDs; synthesized path taken instead")
	}
	terminal := map[int]bool{}
	for _, ev := range evs {
		if ev.Kind == stream.KindState && (ev.State == "done" || ev.State == "coalesced") {
			terminal[ev.Job] = true
		}
	}
	if len(terminal) != 3 {
		t.Fatalf("replay covered %d/3 jobs", len(terminal))
	}
}

// TestStreamSubscribeAfterDoneSynthesized: when nothing was retained —
// here the batch ran before EnableStream, so its topic never saw an
// event — a late subscriber still gets a complete, well-terminated
// stream synthesized from the status snapshot.
func TestStreamSubscribeAfterDoneSynthesized(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	close(bb.release)
	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, reg, u.APIKey, st.ID)

	reg.EnableStream(stream.Options{})
	ts := streamServer(t, reg)
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	evs := collectUntilEnd(t, ch, 10*time.Second)
	if len(evs) != 4 {
		t.Fatalf("synthesized stream has %d events, want 3 states + end", len(evs))
	}
	for _, ev := range evs[:3] {
		if ev.Kind != stream.KindState || ev.ID != 0 {
			t.Fatalf("synthesized event %+v, want id-less state", ev)
		}
		if ev.State != "done" && ev.State != "coalesced" {
			t.Fatalf("synthesized state %q not terminal", ev.State)
		}
		if ev.Src == "" || ev.Dst == "" {
			t.Fatalf("synthesized event missing endpoints: %+v", ev)
		}
	}
	if last := evs[3]; last.Kind != stream.KindEnd || last.Reason != "done" {
		t.Fatalf("synthesized terminal %s/%s", last.Kind, last.Reason)
	}
}

// TestStreamRevokeEndsStream: revoking a user closes that user's live
// event streams with end/revoked. The parked batch keeps the stream
// open (heartbeats prove liveness) until the revocation lands.
func TestStreamRevokeEndsStream(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	reg.EnableStream(stream.Options{})
	ts := streamServer(t, reg)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})

	// Jobs are parked behind the gate; consume the admission/running
	// states, then let a heartbeat or two prove the stream is idle-alive.
	seenHeartbeat := false
	deadline := time.After(5 * time.Second)
drain:
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("stream closed before revocation")
			}
			if ev.Kind == "heartbeat" {
				seenHeartbeat = true
				break drain
			}
		case <-deadline:
			break drain
		}
	}
	if !seenHeartbeat {
		t.Fatal("no heartbeat on idle stream")
	}

	req, _ := http.NewRequest("DELETE", ts+"/api/v1/users/"+u.APIKey, nil)
	req.Header.Set("X-Admin-Key", "adm")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revoke: %d", resp.StatusCode)
	}

	for {
		ev := nextEvent(t, ch, 5*time.Second)
		if ev.Kind == stream.KindEnd {
			if ev.Reason != "revoked" {
				t.Fatalf("end reason %q, want revoked", ev.Reason)
			}
			break
		}
	}
	close(bb.release)
}

// TestStreamShutdownEndsStreams: Broker.Shutdown terminates every live
// stream with end/shutdown, leaves no subscribers behind, and makes
// new subscriptions fail with 503.
func TestStreamShutdownEndsStreams(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	broker := reg.EnableStream(stream.Options{})
	ts := streamServer(t, reg)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1))
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := openStream(t, ts+"/api/v1/batch/"+st.ID+"/events",
		map[string]string{"X-API-Key": u.APIKey})
	// Absorb the queued/running states so the terminal end is next.
	nextEvent(t, ch, 5*time.Second)

	broker.Shutdown()
	for {
		ev := nextEvent(t, ch, 5*time.Second)
		if ev.Kind == stream.KindEnd {
			if ev.Reason != "shutdown" {
				t.Fatalf("end reason %q, want shutdown", ev.Reason)
			}
			break
		}
	}
	// The handler returns on end; the body closes behind it.
	deadline := time.After(5 * time.Second)
waitClose:
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				break waitClose
			}
		case <-deadline:
			t.Fatal("stream not closed after shutdown end event")
		}
	}
	if n := broker.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers survive shutdown", n)
	}
	req, _ := http.NewRequest("GET", ts+"/api/v1/batch/"+st.ID+"/events", nil)
	req.Header.Set("X-API-Key", u.APIKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown subscribe: %d, want 503", resp.StatusCode)
	}
	close(bb.release)
}

// TestStreamFirehose: owner scoping (a user key sees only its own
// measurements regardless of requested filters), admin filtering by
// user/src/dst, replay-on-connect of archived measurements, and
// dedupe between the replayed prelude and the live feed.
func TestStreamFirehose(t *testing.T) {
	reg, alice, d := deploymentRegistry(t, stream.Options{})
	ts := streamServer(t, reg)
	bob, err := reg.AddUser("admin-secret", "bob", 8, 10000)
	if err != nil {
		t.Fatal(err)
	}

	src := d.PickSourceHost(0)
	specs := batchSpecs(t, d, 3)
	dstA, dstB, dstC := specs[0].Dst, specs[1].Dst, specs[2].Dst
	if _, err := reg.Measure(context.Background(), alice.APIKey, src.Addr, dstA); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Measure(context.Background(), bob.APIKey, src.Addr, dstB); err != nil {
		t.Fatal(err)
	}

	users := func(evs []wireEvent) map[string]int {
		out := map[string]int{}
		for _, ev := range evs {
			if ev.Kind != stream.KindMeasurement {
				t.Fatalf("firehose carried %q event", ev.Kind)
			}
			if len(ev.Result) == 0 {
				t.Fatalf("measurement event without result: %+v", ev)
			}
			out[ev.User]++
		}
		return out
	}
	replayed := func(url string, headers map[string]string, n int) []wireEvent {
		t.Helper()
		ch, cancel := openStream(t, url, headers)
		var evs []wireEvent
		for len(evs) < n {
			evs = append(evs, nextEvent(t, ch, 5*time.Second))
		}
		cancel()
		return evs
	}

	// Admin replay sees both users' archived measurements.
	got := users(replayed(ts+"/api/v1/firehose?replay=10",
		map[string]string{"X-Admin-Key": "admin-secret"}, 2))
	if got["alice"] != 1 || got["bob"] != 1 {
		t.Fatalf("admin replay saw %v", got)
	}
	// Admin filters: by user, and by dst.
	got = users(replayed(ts+"/api/v1/firehose?replay=10&user=alice",
		map[string]string{"X-Admin-Key": "admin-secret"}, 1))
	if got["alice"] != 1 || len(got) != 1 {
		t.Fatalf("user filter saw %v", got)
	}
	evs := replayed(ts+"/api/v1/firehose?replay=10&dst="+dstB.String(),
		map[string]string{"X-Admin-Key": "admin-secret"}, 1)
	if evs[0].Dst != dstB.String() {
		t.Fatalf("dst filter returned %s", evs[0].Dst)
	}
	// Owner scoping: bob asking for alice's traffic still sees only bob.
	got = users(replayed(ts+"/api/v1/firehose?replay=10&user=alice",
		map[string]string{"X-API-Key": bob.APIKey}, 1))
	if got["bob"] != 1 || len(got) != 1 {
		t.Fatalf("scoped replay saw %v", got)
	}
	// A stranger's key is rejected outright.
	req, _ := http.NewRequest("GET", ts+"/api/v1/firehose", nil)
	req.Header.Set("X-API-Key", "bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus firehose key: %d", resp.StatusCode)
	}

	// Replay→live handoff with dedupe: the two archived measurements
	// arrive once via replay; a fresh measurement then arrives once via
	// the live feed, not twice.
	ch, cancel := openStream(t, ts+"/api/v1/firehose?replay=10",
		map[string]string{"X-Admin-Key": "admin-secret"})
	nextEvent(t, ch, 5*time.Second)
	nextEvent(t, ch, 5*time.Second)
	if _, err := reg.Measure(context.Background(), alice.APIKey, src.Addr, dstC); err != nil {
		t.Fatal(err)
	}
	live := nextEvent(t, ch, 5*time.Second)
	if live.Kind != stream.KindMeasurement || live.Dst != dstC.String() || live.User != "alice" {
		t.Fatalf("live event %+v, want alice's %s measurement", live, dstC)
	}
	// Nothing else (in particular no duplicate of the replayed pair)
	// within a few heartbeats.
	select {
	case ev, ok := <-ch:
		if ok && ev.Kind != "heartbeat" {
			t.Fatalf("unexpected extra event %+v", ev)
		}
	case <-time.After(150 * time.Millisecond):
	}
	cancel()
}
