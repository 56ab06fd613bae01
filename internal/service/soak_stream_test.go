package service_test

// TestSoakStream runs the 1000-job duplicate-heavy soak with the full
// streaming surface attached: one HTTP follower per batch, concurrent
// firehose subscribers (admin plus user-scoped), and one permanently
// stalled subscriber parked on the busiest batch topic. It checks that
// streaming never interferes with the measurement pipeline (the soak
// completes inside the same deadline as the non-streaming soak), that
// every follower stream self-terminates with end/done, that firehose
// event accounting conserves (delivered measurements + gap counts ==
// executed measurements), that the stalled subscriber's ledger
// balances, and that no subscriber survives the teardown.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revtr"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/stream"
)

func TestSoakStream(t *testing.T) {
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "admin-secret")
	// A deliberately small ring, smaller than the replay window: the
	// per-batch topics carry hundreds of events each, so any subscriber
	// that stalls (and the one below does, permanently) must overflow
	// and drop rather than grow — even when the simulated soak finishes
	// faster than the subscriber attaches and the flood arrives as
	// replay prefill.
	broker := reg.EnableStream(stream.Options{SubBuffer: 8, Replay: 64})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg.EnableBatch(ctx, sched.Options{QueueCap: 2048, Quantum: 3})
	ts := streamServer(t, reg)

	srcHost := d.PickSourceHost(0)
	var all []string
	for i, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			all = append(all, h.Addr.String())
		}
		if len(all) == 30 || i > 400 {
			break
		}
	}
	if len(all) < 9 {
		t.Fatalf("only %d destinations available", len(all))
	}
	// Disjoint per-user destination pools: every user leads its own
	// flights, so the user-scoped firehose subscribers below each see
	// their own measurements rather than losing them to cross-user
	// coalescing.
	third := len(all) / 3
	pools := map[string][]string{
		"alice": all[:third], "bob": all[third : 2*third], "carol": all[2*third:],
	}

	users := map[string]service.User{}
	for _, name := range []string{"alice", "bob", "carol"} {
		u := decode[service.User](t, postJSON(t, ts+"/api/v1/users",
			map[string]string{"X-Admin-Key": "admin-secret"},
			map[string]any{"name": name, "maxPerDay": 1000}))
		users[name] = u
	}
	resp := postJSON(t, ts+"/api/v1/sources",
		map[string]string{"X-API-Key": users["alice"].APIKey},
		map[string]any{"addr": srcHost.Addr.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add source: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Firehose subscribers attach before any job is submitted so the
	// admin one's accounting covers every executed measurement.
	type fhCount struct {
		meas, gaps atomic.Uint64
	}
	fhCounts := map[string]*fhCount{}
	fhDone := map[string]<-chan wireEvent{}
	fhCancel := []context.CancelFunc{}
	for name, hdr := range map[string]map[string]string{
		"admin": {"X-Admin-Key": "admin-secret"},
		"alice": {"X-API-Key": users["alice"].APIKey},
		"bob":   {"X-API-Key": users["bob"].APIKey},
	} {
		ch, cn := openStream(t, ts+"/api/v1/firehose", hdr)
		fhCancel = append(fhCancel, cn)
		c := &fhCount{}
		fhCounts[name] = c
		drained := make(chan wireEvent) // closed (never sent on) at stream end
		fhDone[name] = drained
		go func(name string) {
			defer close(drained)
			for ev := range ch {
				switch ev.Kind {
				case "heartbeat":
				case stream.KindGap:
					c.gaps.Add(ev.Gap)
				case stream.KindMeasurement:
					if name != "admin" && ev.User != name {
						t.Errorf("firehose subscriber %s saw %s's measurement", name, ev.User)
					}
					c.meas.Add(1)
				default:
					t.Errorf("firehose subscriber %s saw %q event", name, ev.Kind)
				}
			}
		}(name)
	}

	// Submit 6 duplicate-heavy batches (1002 jobs over 30 unique pairs)
	// and follow each over HTTP while it runs.
	const batchesPerUser, jobsPerBatch = 2, 167
	var (
		mu       sync.Mutex
		subWG    sync.WaitGroup
		batchIDs = map[string][]string{}
		total    int
	)
	submitOne := func(name, key string) bool {
		pool := pools[name]
		var reqPairs []map[string]string
		for j := 0; j < jobsPerBatch; j++ {
			reqPairs = append(reqPairs, map[string]string{
				"src": srcHost.Addr.String(), "dst": pool[j%len(pool)]})
		}
		resp := postJSON(t, ts+"/api/v1/batch",
			map[string]string{"X-API-Key": key}, map[string]any{"pairs": reqPairs})
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s batch: status %d", name, resp.StatusCode)
			resp.Body.Close()
			return false
		}
		st := decode[sched.BatchStatus](t, resp)
		mu.Lock()
		batchIDs[name] = append(batchIDs[name], st.ID)
		total += len(st.Jobs)
		mu.Unlock()
		return true
	}

	// Alice's first batch goes in synchronously so the stalled
	// subscriber can park on its topic as early as possible; whether the
	// batch is still live (hundreds of events flood the ring) or already
	// done (the 64-event replay window prefills it), the 8-slot ring
	// overflows either way.
	if !submitOne("alice", users["alice"].APIKey) {
		t.Fatal("first submission failed")
	}
	stalled, err := broker.Subscribe(stream.BatchTopic(batchIDs["alice"][0]),
		stream.SubOptions{Owner: "admin-secret"})
	if err != nil {
		t.Fatal(err)
	}

	for name, u := range users {
		first := 0
		if name == "alice" {
			first = 1 // batch 0 already submitted above
		}
		subWG.Add(1)
		go func(name, key string, first int) {
			defer subWG.Done()
			for b := first; b < batchesPerUser; b++ {
				if !submitOne(name, key) {
					return
				}
			}
		}(name, u.APIKey, first)
	}
	subWG.Wait()
	if total != 3*batchesPerUser*jobsPerBatch {
		t.Fatalf("submitted %d jobs, want %d", total, 3*batchesPerUser*jobsPerBatch)
	}

	// One follower per batch, each drained to its terminal end event.
	start := time.Now() //revtr:wallclock soak deadline
	type followResult struct {
		batch string
		evs   []wireEvent
	}
	results := make(chan followResult, 6)
	var followWG sync.WaitGroup
	for name, ids := range batchIDs {
		key := users[name].APIKey
		for _, id := range ids {
			followWG.Add(1)
			ch, _ := openStream(t, ts+"/api/v1/batch/"+id+"/events",
				map[string]string{"X-API-Key": key})
			go func(id string, ch <-chan wireEvent) {
				defer followWG.Done()
				var evs []wireEvent
				for ev := range ch {
					if ev.Kind == "heartbeat" {
						continue
					}
					evs = append(evs, ev)
				}
				// Channel closed: the handler wrote the end event,
				// released its subscription, and finished the response.
				results <- followResult{batch: id, evs: evs}
			}(id, ch)
		}
	}
	followDone := make(chan struct{})
	go func() { followWG.Wait(); close(followDone) }()
	select {
	case <-followDone:
	case <-time.After(90 * time.Second):
		t.Fatal("batch followers did not all terminate within 90s")
	}
	elapsed := time.Since(start) //revtr:wallclock soak deadline
	close(results)
	for fr := range results {
		if len(fr.evs) == 0 {
			t.Fatalf("batch %s follower saw no events", fr.batch)
		}
		last := fr.evs[len(fr.evs)-1]
		if last.Kind != stream.KindEnd || last.Reason != "done" {
			t.Fatalf("batch %s follower ended %s/%s", fr.batch, last.Kind, last.Reason)
		}
	}
	t.Logf("streamed soak: %d jobs done in %v with 10 live subscribers", total, elapsed)

	// Books: terminal-state conservation over the API, as in TestSoakBatch.
	terminal := map[string]int{}
	accounted := 0
	for name, ids := range batchIDs {
		key := users[name].APIKey
		for _, id := range ids {
			st, err := reg.BatchStatus(key, id)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Done {
				t.Fatalf("batch %s/%s follower ended but batch not done", name, id)
			}
			for _, j := range st.Jobs {
				terminal[j.State]++
				accounted++
			}
		}
	}
	if accounted != total {
		t.Fatalf("job conservation broken: %d submitted, %d accounted", total, accounted)
	}
	execs := reg.Obs().Counter("service_batch_exec_total").Value()
	if execs == 0 {
		t.Fatal("no measurements executed")
	}

	// Firehose conservation: the admin subscriber attached before the
	// first submit, so every executed measurement was offered to it —
	// delivered directly or summarized in a gap. Drain-lag is bounded by
	// a settle deadline.
	adm := fhCounts["admin"]
	settle := time.Now().Add(10 * time.Second)                                 //revtr:wallclock settle deadline
	for adm.meas.Load()+adm.gaps.Load() < execs && time.Now().Before(settle) { //revtr:wallclock settle deadline
		time.Sleep(10 * time.Millisecond)
	}
	if got := adm.meas.Load() + adm.gaps.Load(); got != execs {
		t.Fatalf("firehose accounting: %d delivered + gap events for %d executed measurements", got, execs)
	}
	if a, b := fhCounts["alice"].meas.Load(), fhCounts["bob"].meas.Load(); a == 0 || b == 0 {
		t.Fatalf("scoped firehose subscribers starved: alice=%d bob=%d", a, b)
	}
	for _, cn := range fhCancel {
		cn()
	}
	for name, done := range fhDone {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("firehose subscriber %s did not shut down", name)
		}
	}

	// The stalled subscriber: its topic flooded an 8-slot ring, so it
	// must have dropped, report the loss as one leading gap event, end
	// cleanly, and balance its ledger exactly.
	var gapEvents int
	var sawEnd bool
	first := true
	for {
		ev, ok, err := stalled.TryNext()
		if err != nil || !ok {
			break
		}
		if ev.Kind == stream.KindGap {
			gapEvents++
			if !first {
				t.Fatal("gap event not first in stalled drain")
			}
		}
		if ev.Kind == stream.KindEnd {
			sawEnd = true
		}
		first = false
	}
	if gapEvents != 1 {
		t.Fatalf("stalled subscriber saw %d gap events, want 1", gapEvents)
	}
	if !sawEnd {
		t.Fatal("stalled subscriber's retained tail lost the end event")
	}
	stats := stalled.Stats()
	if stats.Dropped == 0 {
		t.Fatal("stalled subscriber dropped nothing; ring bound untested")
	}
	if stats.Offered != stats.Delivered+stats.Dropped || stats.Buffered != 0 {
		t.Fatalf("stalled ledger imbalance: %+v", stats)
	}
	stalled.Close()

	if dropped := reg.Obs().Counter(obs.Label("stream_dropped_total", "reason", "slow-subscriber")).Value(); dropped < stats.Dropped {
		t.Fatalf("stream_dropped_total{slow-subscriber} = %d < stalled drops %d", dropped, stats.Dropped)
	}
	// A cancelled firehose client observes its disconnect before the
	// server handler runs its deferred unsubscribe; give teardown a
	// moment to settle instead of racing it.
	teardown := time.Now().Add(5 * time.Second)                    //revtr:wallclock teardown settle deadline
	for broker.Subscribers() != 0 && time.Now().Before(teardown) { //revtr:wallclock teardown settle deadline
		time.Sleep(5 * time.Millisecond)
	}
	if n := broker.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers survive the soak teardown", n)
	}
	t.Logf("stream soak ledger: execs=%d admin meas=%d gaps=%d stalled=%+v",
		execs, adm.meas.Load(), adm.gaps.Load(), stats)
}
