package service_test

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"revtr"
	"revtr/internal/sched"
	"revtr/internal/service"
)

// TestSoakBatch pushes a 1000-job duplicate-heavy workload from three
// users through a live HTTP server (the `make soak` target) and checks
// the books: every submitted job lands in exactly one terminal state,
// done+coalesced+failed+shed balances the submission total, the
// coalescing and shed counters agree with the per-job ledger, quota
// charges stay within each user's daily budget, and the dispatch queue
// is empty afterwards.
func TestSoakBatch(t *testing.T) {
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "admin-secret")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sc := reg.EnableBatch(ctx, sched.Options{QueueCap: 2048, Quantum: 3})
	ts := httptestServer(t, reg)

	srcHost := d.PickSourceHost(0)
	var all []string
	for i, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			all = append(all, h.Addr.String())
		}
		if len(all) == 35 || i > 400 {
			break
		}
	}
	if len(all) < 15 {
		t.Fatalf("only %d destinations available", len(all))
	}
	// carol's destinations are disjoint from alice's and bob's so her
	// jobs cannot ride their flights: her tiny budget must actually shed.
	carolN := min(10, len(all)/3)
	dsts := all[:len(all)-carolN] // shared by alice and bob
	carolDsts := all[len(all)-carolN:]

	// Three users; carol's tiny daily budget guarantees quota shedding
	// shows up in the books.
	budgets := map[string]int{"alice": 1000, "bob": 1000, "carol": 5}
	users := map[string]service.User{}
	for name, perDay := range budgets {
		u := decode[service.User](t, postJSON(t, ts+"/api/v1/users",
			map[string]string{"X-Admin-Key": "admin-secret"},
			map[string]any{"name": name, "maxPerDay": perDay}))
		users[name] = u
	}
	resp := postJSON(t, ts+"/api/v1/sources",
		map[string]string{"X-API-Key": users["alice"].APIKey},
		map[string]any{"addr": srcHost.Addr.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add source: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// 1000 jobs: 2 batches per user, duplicate-heavy (25 unique dsts,
	// each user cycling through them from a different offset).
	const batchesPerUser, jobsPerBatch = 2, 167 // 3*2*167 = 1002
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		batchIDs = map[string][]string{} // user -> batch ids
		total    int
	)
	i := 0
	for name, u := range users {
		i++
		wg.Add(1)
		go func(name, key string, offset int) {
			defer wg.Done()
			pool := dsts
			if name == "carol" {
				pool = carolDsts
			}
			for b := 0; b < batchesPerUser; b++ {
				var reqPairs []map[string]string
				for j := 0; j < jobsPerBatch; j++ {
					dst := pool[(offset+j)%len(pool)]
					reqPairs = append(reqPairs, map[string]string{
						"src": srcHost.Addr.String(), "dst": dst})
				}
				resp := postJSON(t, ts+"/api/v1/batch",
					map[string]string{"X-API-Key": key}, map[string]any{"pairs": reqPairs})
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("%s batch %d: status %d", name, b, resp.StatusCode)
					resp.Body.Close()
					return
				}
				st := decode[sched.BatchStatus](t, resp)
				mu.Lock()
				batchIDs[name] = append(batchIDs[name], st.ID)
				total += len(st.Jobs)
				mu.Unlock()
			}
		}(name, u.APIKey, i*7)
	}
	wg.Wait()
	if total != 3*batchesPerUser*jobsPerBatch {
		t.Fatalf("submitted %d jobs, want %d", total, 3*batchesPerUser*jobsPerBatch)
	}

	// Poll every batch to completion and tally terminal states.
	terminal := map[string]int{}
	accounted := 0
	deadline := time.Now().Add(60 * time.Second) //revtr:wallclock soak timeout
	for name, ids := range batchIDs {
		key := users[name].APIKey
		for _, id := range ids {
			for {
				if time.Now().After(deadline) { //revtr:wallclock soak timeout
					t.Fatalf("batch %s/%s never finished", name, id)
				}
				r, err := http.NewRequest("GET", ts+"/api/v1/batch/"+id, nil)
				if err != nil {
					t.Fatal(err)
				}
				r.Header.Set("X-API-Key", key)
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				st := decode[sched.BatchStatus](t, resp)
				if !st.Done {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				for _, j := range st.Jobs {
					terminal[j.State]++
					accounted++
					switch j.State {
					case "done", "coalesced":
						if j.Result == nil {
							t.Errorf("terminal %s job without result", j.State)
						}
					case "failed", "shed":
						if j.Error == "" {
							t.Errorf("terminal %s job without error", j.State)
						}
					default:
						t.Errorf("non-terminal state %q in done batch", j.State)
					}
				}
				break
			}
		}
	}

	// The books must balance.
	if accounted != total {
		t.Fatalf("job conservation broken: %d submitted, %d accounted", total, accounted)
	}
	if n := terminal["done"] + terminal["coalesced"] + terminal["failed"] + terminal["shed"]; n != total {
		t.Fatalf("terminal states don't balance: %v vs total %d", terminal, total)
	}
	if terminal["coalesced"] == 0 {
		t.Fatal("duplicate-heavy soak coalesced nothing")
	}
	if terminal["shed"] == 0 {
		t.Fatal("carol's 5-job budget shed nothing")
	}
	o := reg.Obs()
	if got := o.Counter("sched_coalesced_total").Value(); got != uint64(terminal["coalesced"]) {
		t.Fatalf("sched_coalesced_total = %d, ledger says %d", got, terminal["coalesced"])
	}
	if got := o.Counter("sched_shed_total").Value(); got != uint64(terminal["shed"]) {
		t.Fatalf("sched_shed_total = %d, ledger says %d", got, terminal["shed"])
	}
	// Only leaders run measurements, and each ran at most once.
	if execs := o.Counter("service_batch_exec_total").Value(); execs > uint64(terminal["done"]+terminal["failed"]) {
		t.Fatalf("executor ran %d times for %d leader-terminal jobs",
			execs, terminal["done"]+terminal["failed"])
	}
	// Quota books: nobody overdrew, and carol hit her cap exactly.
	for name, perDay := range budgets {
		used := usedToday(reg, name)
		if used > int64(perDay) {
			t.Fatalf("%s overdrew quota: %d > %d", name, used, perDay)
		}
	}
	if used := usedToday(reg, "carol"); used != 5 {
		t.Fatalf("carol used %d, want her full budget of 5", used)
	}
	if depth := sc.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth %d after soak", depth)
	}
	t.Logf("soak ledger: %v (execs=%d)", terminal, o.Counter("service_batch_exec_total").Value())
}
