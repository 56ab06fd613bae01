package service

import (
	"testing"

	"revtr/internal/store"
)

// TestReplayScanIsBounded: firehose replay examines the newest
// firehoseReplayScan archived records and no more, however large the
// archive and whatever the filter. The records examined are counted by
// where a match is still found: one sitting exactly firehoseReplayScan
// deep is replayed, one a record deeper is not — so a filter nothing
// matches costs that many archive reads, not one per live record.
func TestReplayScanIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int // the only record matching dst=needle is this many from the newest
		found bool
	}{
		{"match on the last record examined", firehoseReplayScan, true},
		{"match one record past the bound", firehoseReplayScan + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			archive, err := store.Open("", store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			const total = 3 * firehoseReplayScan
			for i := 0; i < total; i++ {
				dst := "10.0.0.1"
				if i == total-tc.depth {
					dst = "10.9.9.9"
				}
				if _, err := archive.Append(func(id uint64) any {
					return &Measurement{ID: int(id), Src: "10.0.0.2", Dst: dst, User: "alice", Status: "complete"}
				}); err != nil {
					t.Fatal(err)
				}
			}
			reg := NewRegistryWithArchive(nil, "adm", archive)
			got := reg.replayMeasurements(defaultFirehoseReplay, "", "", "10.9.9.9")
			if found := len(got) == 1 && got[0].ID == total-tc.depth; found != tc.found {
				t.Fatalf("replayed %d measurements, want the match found = %v", len(got), tc.found)
			}
			if got := reg.replayMeasurements(defaultFirehoseReplay, "", "", "10.1.1.1"); len(got) != 0 {
				t.Fatalf("a filter nothing matches replayed %d measurements", len(got))
			}
			// Unfiltered replay still serves the newest k, oldest first.
			got = reg.replayMeasurements(3, "", "", "")
			if len(got) != 3 || got[0].ID != total-3 || got[2].ID != total-1 {
				t.Fatalf("unfiltered replay = %v", got)
			}
		})
	}
}
