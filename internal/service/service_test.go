package service_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/service"
)

func testAPI(t *testing.T) (*httptest.Server, *revtr.Deployment) {
	t.Helper()
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "admin-secret")
	ts := httptest.NewServer(service.NewAPI(reg))
	t.Cleanup(ts.Close)
	return ts, d
}

func postJSON(t *testing.T, url string, headers map[string]string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
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
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFullServiceFlow(t *testing.T) {
	ts, d := testAPI(t)

	// Health.
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("health: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()

	// Admin creates a user.
	resp = postJSON(t, ts.URL+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"},
		map[string]any{"name": "alice", "maxParallel": 2, "maxPerDay": 5})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add user: %d", resp.StatusCode)
	}
	user := decode[service.User](t, resp)
	if user.APIKey == "" {
		t.Fatal("no API key issued")
	}

	// Wrong admin key is rejected.
	resp = postJSON(t, ts.URL+"/api/v1/users",
		map[string]string{"X-Admin-Key": "wrong"}, map[string]any{"name": "eve"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad admin key: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Register a source (a responsive host of the simulated Internet).
	srcHost := d.PickSourceHost(0)
	resp = postJSON(t, ts.URL+"/api/v1/sources",
		map[string]string{"X-API-Key": user.APIKey},
		map[string]any{"addr": srcHost.Addr.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add source: %d", resp.StatusCode)
	}
	src := decode[service.SourceInfo](t, resp)
	if src.AtlasSize == 0 {
		t.Error("bootstrap built no atlas")
	}

	// Run measurements up to the daily quota.
	var dsts []string
	for i, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			dsts = append(dsts, h.Addr.String())
		}
		if len(dsts) == 5 || i > 50 {
			break
		}
	}
	resp = postJSON(t, ts.URL+"/api/v1/revtr",
		map[string]string{"X-API-Key": user.APIKey},
		map[string]any{"src": srcHost.Addr.String(), "dsts": dsts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d", resp.StatusCode)
	}
	ms := decode[[]service.Measurement](t, resp)
	if len(ms) != len(dsts) {
		t.Fatalf("got %d measurements", len(ms))
	}
	for _, m := range ms {
		if len(m.Hops) == 0 {
			t.Error("measurement with no hops")
		}
		if m.Hops[0].Technique != "dst" {
			t.Errorf("first hop technique %s", m.Hops[0].Technique)
		}
	}

	// The daily quota (5) is now exhausted.
	resp = postJSON(t, ts.URL+"/api/v1/revtr",
		map[string]string{"X-API-Key": user.APIKey},
		map[string]any{"src": srcHost.Addr.String(), "dsts": dsts[:1]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota not enforced: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Fetch a stored measurement.
	resp, err = http.Get(fmt.Sprintf("%s/api/v1/revtr/%d", ts.URL, ms[0].ID))
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("get: %v %d", err, resp.StatusCode)
	}
	got := decode[service.Measurement](t, resp)
	if got.Dst != ms[0].Dst {
		t.Error("stored measurement mismatch")
	}

	// Stats reflect activity.
	resp, _ = http.Get(ts.URL + "/api/v1/stats")
	st := decode[service.Stats](t, resp)
	if st.Users != 1 || st.Sources != 1 || st.Measurements != 5 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMeasureRequiresAuthAndSource(t *testing.T) {
	ts, d := testAPI(t)
	// No API key.
	resp := postJSON(t, ts.URL+"/api/v1/revtr", nil,
		map[string]any{"src": "16.0.128.1", "dsts": []string{"16.1.128.1"}})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated measure: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Authenticated but unregistered source.
	resp = postJSON(t, ts.URL+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"}, map[string]any{"name": "bob"})
	u := decode[service.User](t, resp)
	h := d.PickSourceHost(1)
	resp = postJSON(t, ts.URL+"/api/v1/revtr",
		map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"src": h.Addr.String(), "dsts": []string{h.Addr.String()}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown source: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestBootstrapRejectsDeadSource(t *testing.T) {
	ts, d := testAPI(t)
	resp := postJSON(t, ts.URL+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"}, map[string]any{"name": "carol"})
	u := decode[service.User](t, resp)

	// A host that never answers cannot pass the bootstrap check.
	var dead *topology.Host
	for i := range d.Topo.Hosts {
		if !d.Topo.Hosts[i].PingResponsive {
			dead = &d.Topo.Hosts[i]
			break
		}
	}
	if dead == nil {
		t.Skip("no unresponsive host")
	}
	resp = postJSON(t, ts.URL+"/api/v1/sources",
		map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"addr": dead.Addr.String()})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("dead source accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// A non-existent address is also rejected.
	resp = postJSON(t, ts.URL+"/api/v1/sources",
		map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"addr": "203.0.113.7"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("phantom source accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAddUserNameRequiredAndUnique: firehose owner-scoping and the
// per-user gauges key on the user's name, so an empty name (which would
// disable the scoping filter) answers 400 and a name a live user holds
// answers 409.
func TestAddUserNameRequiredAndUnique(t *testing.T) {
	reg := service.NewRegistry(&fakeBackend{}, "adm")
	ts := httptestServer(t, reg)
	addUser := func(name string) int {
		resp := postJSON(t, ts+"/api/v1/users", map[string]string{"X-Admin-Key": "adm"},
			map[string]any{"name": name})
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		name string
		want int
	}{
		{"", http.StatusBadRequest},
		{"alice", http.StatusCreated},
		{"alice", http.StatusConflict},
		{"bob", http.StatusCreated},
	} {
		if got := addUser(tc.name); got != tc.want {
			t.Fatalf("add user %q: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if st := reg.Stats(); st.Users != 2 {
		t.Fatalf("%d users registered, want 2", st.Users)
	}
}

// atlasRecorder keeps the sources its deployment bootstraps, so a test
// can read the atlases maintenance refreshes.
type atlasRecorder struct {
	*service.DeploymentBackend
	srcs map[ipv4.Addr]core.Source
}

func (b *atlasRecorder) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	src, err := b.DeploymentBackend.RegisterSource(addr)
	if err == nil {
		b.srcs[addr] = src
	}
	return src, err
}

// TestDailyMaintenanceDeterministic: atlas refreshes draw randomness and
// probe credit from the deployment in call order, so two identically
// seeded deployments end three days of maintenance with identical
// atlases only if the sources refresh in one fixed order. Sources()
// lists them in address order too.
func TestDailyMaintenanceDeterministic(t *testing.T) {
	run := func() (string, []service.SourceInfo) {
		cfg := revtr.DefaultConfig(200)
		cfg.Seed = 31
		cfg.Topology.Seed = 31
		d := revtr.Build(cfg)
		rec := &atlasRecorder{DeploymentBackend: service.NewDeploymentBackend(d), srcs: map[ipv4.Addr]core.Source{}}
		reg := service.NewRegistry(rec, "adm")
		u, err := reg.AddUser("adm", "alice", 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 7; i >= 0 && len(rec.srcs) < 4; i-- {
			_, _ = reg.RegisterSource(u.APIKey, d.PickSourceHost(i).Addr, false)
		}
		if len(rec.srcs) < 4 {
			t.Skipf("only %d sources bootstrapped", len(rec.srcs))
		}
		for day := 0; day < 3; day++ {
			reg.DailyMaintenance()
		}
		var b strings.Builder
		for _, addr := range slices.Sorted(maps.Keys(rec.srcs)) {
			for _, e := range rec.srcs[addr].Atlas.Entries {
				fmt.Fprintf(&b, "%s %s %v\n", addr, e.ProbeName, e.Hops)
			}
		}
		return b.String(), reg.Sources()
	}
	first, srcs := run()
	if second, _ := run(); first != second {
		t.Fatal("identically seeded deployments refreshed to different atlases")
	}
	if !slices.IsSortedFunc(srcs, func(a, b service.SourceInfo) int {
		return cmp.Compare(mustAddr(a.Addr), mustAddr(b.Addr))
	}) {
		t.Fatalf("sources not listed in address order: %+v", srcs)
	}
}
