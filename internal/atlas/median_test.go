package atlas_test

import (
	"maps"
	"slices"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/simtest"
)

// TestMedianHopsFollowsBuildAndRefresh: MedianHops is the median entry
// length after a build and again after a refresh has replaced entries;
// an atlas that could not be filled leaves it 0 (start at TTL 1).
func TestMedianHopsFollowsBuildAndRefresh(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 20, 4)
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

// octetAS maps an address to the AS named by its first octet, and 10/8
// to none.
type octetAS struct{}

func (octetAS) ASOf(x ipv4.Addr) (topology.ASN, bool) { return topology.ASN(x >> 24), x>>24 != 10 }

// TestASHopsFromEntries: ASHops holds, per AS, the fewest hops from the
// source at which an entry crossed it — hop i of an entry as len(Hops)-i,
// the entry's probe's own AS one further than its first hop — skips hops
// the mapper cannot place, and loses an AS with the last entry that
// crossed it.
func TestASHopsFromEntries(t *testing.T) {
	at := atlas.New(measure.Agent{Addr: a("1.0.0.1")})
	at.Summarize(octetAS{})
	if at.ASHops != nil || at.MedianHops != 0 {
		t.Fatalf("empty atlas: ASHops %v, MedianHops %d", at.ASHops, at.MedianHops)
	}
	at.Add("p0", 7, []ipv4.Addr{a("2.0.0.1"), a("3.0.0.1"), a("3.0.0.2"), a("1.0.0.1")}, 0)
	e := at.Add("p1", 8, []ipv4.Addr{a("5.0.0.1"), a("10.0.0.1"), a("2.0.0.9"), a("1.0.0.1")}, 0)
	at.Summarize(octetAS{})
	want := map[topology.ASN]int{1: 1, 2: 2, 3: 2, 5: 4, 7: 5, 8: 5}
	if !maps.Equal(at.ASHops, want) {
		t.Fatalf("ASHops = %v, want %v", at.ASHops, want)
	}
	at.Remove(e)
	at.Summarize(octetAS{})
	want = map[topology.ASN]int{1: 1, 2: 4, 3: 2, 7: 5}
	if !maps.Equal(at.ASHops, want) {
		t.Fatalf("after removing an entry: ASHops = %v, want %v", at.ASHops, want)
	}
}

// TestASHopsFollowsBuildAndRefresh: a build leaves ASHops the table its
// entries give, through the service's mapper, and so does a refresh that
// drops entries it cannot replace: the ASes only they crossed leave it.
func TestASHopsFollowsBuildAndRefresh(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	m := ip2as.Origin{Topo: env.Topo}
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, m, 20, 4)
	table := func(at *atlas.Atlas) map[topology.ASN]int {
		out := map[topology.ASN]int{}
		for _, e := range at.Entries {
			for i, h := range append([]ipv4.Addr{0}, e.Hops...) {
				asn, ok := topology.ASN(e.ProbeAS), true
				if i > 0 {
					asn, ok = m.ASOf(h)
				}
				if d, seen := out[asn]; ok && (!seen || len(e.Hops)+1-i < d) {
					out[asn] = len(e.Hops) + 1 - i
				}
			}
		}
		return out
	}
	at := svc.BuildFor(src)
	if len(at.ASHops) == 0 || !maps.Equal(at.ASHops, table(at)) {
		t.Fatalf("after build: ASHops %v, entries give %v", at.ASHops, table(at))
	}
	before := len(at.ASHops)
	kept := map[string]bool{}
	for _, e := range at.Entries[:3] {
		e.MarkUseful()
		kept[e.ProbeName] = true
	}
	for _, p := range env.Probes {
		if !kept[p.Agent.Name] {
			p.Credits = 0 // the dropped entries stay unreplaced
		}
	}
	svc.Refresh(at)
	if at.Size() != 3 || !maps.Equal(at.ASHops, table(at)) || len(at.ASHops) >= before {
		t.Fatalf("after a refresh kept %d entries: %d ASes (%d before), ASHops %v, entries give %v",
			at.Size(), len(at.ASHops), before, at.ASHops, table(at))
	}
}
