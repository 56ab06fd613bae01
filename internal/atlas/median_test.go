package atlas_test

import (
	"slices"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/simtest"
)

// TestMedianHopsFollowsBuildAndRefresh: MedianHops is the median entry
// length after a build and again after a refresh has replaced entries;
// an atlas that could not be filled leaves it 0 (start at TTL 1).
func TestMedianHopsFollowsBuildAndRefresh(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, 20, 4)
	median := func(at *atlas.Atlas) int {
		var lens []int
		for _, e := range at.Entries {
			lens = append(lens, len(e.Hops))
		}
		slices.Sort(lens)
		return lens[len(lens)/2]
	}
	at := svc.BuildFor(src)
	if at.MedianHops < 2 || at.MedianHops != median(at) {
		t.Fatalf("after build: MedianHops = %d, entries' median %d", at.MedianHops, median(at))
	}
	at.MedianHops = -1
	svc.Refresh(at) // nothing was useful: every entry is replaced
	if at.MedianHops != median(at) {
		t.Fatalf("after refresh: MedianHops = %d, entries' median %d", at.MedianHops, median(at))
	}

	for _, p := range env.Probes {
		p.Credits = 0
	}
	if empty := svc.BuildFor(src); empty.Size() != 0 || empty.MedianHops != 0 {
		t.Fatalf("unfilled atlas: size %d, MedianHops %d, want 0 and 0", empty.Size(), empty.MedianHops)
	}
}
