package service_test

import (
	"context"
	"net/http"
	"testing"

	"revtr/internal/obs"
	"revtr/internal/stream"
)

// TestEveryArchivedMeasurementCountedOnce: whichever door a measurement
// came in by — sync POST /revtr, a batch job, the NDT hook — it goes
// through one recording tail, so the three books that tail keeps agree:
// status totals == archive appends == firehose measurement events.
func TestEveryArchivedMeasurementCountedOnce(t *testing.T) {
	reg, u, d := deploymentRegistry(t, stream.Options{})
	ctx := context.Background()
	src := d.PickSourceHost(0).Addr
	specs := batchSpecs(t, d, 7)

	for _, sp := range specs[:2] {
		if _, err := reg.Measure(ctx, u.APIKey, src, sp.Dst); err != nil {
			t.Fatal(err)
		}
	}
	st, err := reg.SubmitBatch(ctx, u.APIKey, specs[2:5])
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, reg, u.APIKey, st.ID)
	for _, sp := range specs[5:] {
		if m, err := reg.NDT(ctx, src, sp.Dst); err != nil || m == nil {
			t.Fatalf("ndt %s: %v, %v", sp.Dst, m, err)
		}
	}

	o := reg.Obs()
	var counted uint64
	for _, status := range []string{"complete", "aborted", "failed"} {
		counted += o.Counter(obs.Label("service_measure_status_total", "status", status)).Value()
	}
	appended := o.Counter("store_appends_total").Value()
	published := o.Counter(obs.Label("stream_events_total", "kind", stream.KindMeasurement)).Value()
	if counted != uint64(len(specs)) || appended != counted || published != counted {
		t.Fatalf("%d measurements: status totals %d, archive appends %d, firehose events %d",
			len(specs), counted, appended, published)
	}
}

// TestMeasureRejectsBadDstBeforeMeasuring: a malformed destination
// anywhere in dsts answers 400 before anything is measured, charged to
// the user's daily quota or archived — the batch endpoint's
// reject-whole rule.
func TestMeasureRejectsBadDstBeforeMeasuring(t *testing.T) {
	reg, _, u, src := fakeRegistry(t, 4, 100)
	ts := httptestServer(t, reg)
	resp := postJSON(t, ts+"/api/v1/revtr", map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"src": src.String(), "dsts": []string{"10.0.1.1", "10.0.1.2", "not-an-address"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if used := usedToday(reg, u.Name); used != 0 {
		t.Errorf("rejected request charged %d measurements to the daily quota", used)
	}
	if n := reg.Stats().Measurements; n != 0 {
		t.Errorf("rejected request archived %d measurements", n)
	}
}
