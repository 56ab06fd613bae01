package atlas_test

import (
	"slices"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

func a(s string) ipv4.Addr { return ipv4.MustParseAddr(s) }

func TestLookupDirectAndSuffix(t *testing.T) {
	at := atlas.New(measure.Agent{Addr: a("1.0.0.1")})
	hops := []ipv4.Addr{a("2.0.0.1"), a("3.0.0.1"), a("4.0.0.1"), a("1.0.0.1")}
	e := at.Add("p0", 7, hops, 100)
	x, ok := at.Lookup(a("3.0.0.1"))
	if !ok {
		t.Fatal("no intersection")
	}
	if x.Entry != e || x.Pos != 1 {
		t.Fatalf("wrong ref: pos=%d", x.Pos)
	}
	if len(x.Suffix) != 2 || x.Suffix[0] != a("4.0.0.1") || x.Suffix[1] != a("1.0.0.1") {
		t.Fatalf("suffix %v", x.Suffix)
	}
	if x.ViaRRAlias {
		t.Error("direct hop flagged as RR alias")
	}
	if _, ok := at.Lookup(a("9.9.9.9")); ok {
		t.Error("phantom intersection")
	}
}

func TestFirstWriterWinsOnSharedHops(t *testing.T) {
	at := atlas.New(measure.Agent{Addr: a("1.0.0.1")})
	e1 := at.Add("p0", 1, []ipv4.Addr{a("2.0.0.1"), a("3.0.0.1"), a("1.0.0.1")}, 0)
	at.Add("p1", 2, []ipv4.Addr{a("5.0.0.1"), a("3.0.0.1"), a("1.0.0.1")}, 0)
	x, ok := at.Lookup(a("3.0.0.1"))
	if !ok || x.Entry != e1 {
		t.Fatal("shared hop not owned by first entry")
	}
}

func TestRemoveClearsIndexes(t *testing.T) {
	at := atlas.New(measure.Agent{Addr: a("1.0.0.1")})
	e := at.Add("p0", 1, []ipv4.Addr{a("2.0.0.1"), a("1.0.0.1")}, 0)
	at.Remove(e)
	if at.Size() != 0 {
		t.Fatal("entry not removed")
	}
	if _, ok := at.Lookup(a("2.0.0.1")); ok {
		t.Fatal("index not cleared")
	}
}

// TestRemoveHandsSharedHopsOn: a hop two entries hold stays in the atlas
// when the entry that claimed it first is removed — the survivor claims
// it — while the removed entry's own hops leave.
func TestRemoveHandsSharedHopsOn(t *testing.T) {
	at := atlas.New(measure.Agent{Addr: a("1.0.0.1")})
	e1 := at.Add("p0", 1, []ipv4.Addr{a("2.0.0.1"), a("3.0.0.1"), a("1.0.0.1")}, 0)
	e2 := at.Add("p1", 2, []ipv4.Addr{a("5.0.0.1"), a("3.0.0.1"), a("1.0.0.1")}, 0)
	at.Remove(e1)
	x, ok := at.Lookup(a("3.0.0.1"))
	if !ok || x.Entry != e2 || x.Pos != 1 || len(x.Suffix) != 1 {
		t.Fatalf("shared hop after removing its first holder: %+v, %v", x, ok)
	}
	if _, ok := at.Lookup(a("2.0.0.1")); ok {
		t.Fatal("the removed entry's own hop is still indexed")
	}
}

// TestBuildRRAliasesProbesEachHopOnce: RR probing is keyed by hop, once
// per atlas — an entry whose hops are all probed already, or the same
// path re-added after a remove (a refresh's re-measure), sends nothing.
func TestBuildRRAliasesProbesEachHopOnce(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	at := atlas.New(src)
	var hops []ipv4.Addr
	for _, p := range env.Probes {
		if tr := env.Prober.Traceroute(p.Agent, src.Addr); tr.ReachedDst && p.Agent.AS != src.AS {
			hops = tr.HopAddrs()
			break
		}
	}
	e := at.Add("p0", 1, hops, 0)
	before := env.Prober.Count
	at.BuildRRAliases(env.Prober, atlas.FixedSites(env.Sites), env.Alias, e)
	if sent := env.Prober.Count.Sub(before); sent.RR != uint64(len(hops)) {
		t.Fatalf("first entry: %d RR pings for %d hops", sent.RR, len(hops))
	}
	before = env.Prober.Count
	at.BuildRRAliases(env.Prober, atlas.FixedSites(env.Sites), env.Alias, at.Add("p1", 1, hops[1:], 0))
	at.Remove(e)
	at.BuildRRAliases(env.Prober, atlas.FixedSites(env.Sites), env.Alias, at.Add("p0", 1, hops, 0))
	if sent := env.Prober.Count.Sub(before); sent.Total() != 0 {
		t.Fatalf("hops probed before were probed again: %+v", sent)
	}
}

func TestBuildRRAliasesEnablesIntersections(t *testing.T) {
	env := simtest.New(t, 300, 4)
	srcHost := env.SourceHost(0)
	src := env.Agent(srcHost)
	at := atlas.New(src)

	// Measure real traceroutes from a few probes and attach RR aliases.
	added := 0
	for _, p := range env.Probes {
		if p.Agent.AS == src.AS {
			continue
		}
		tr := env.Prober.Traceroute(p.Agent, src.Addr)
		if !tr.ReachedDst {
			continue
		}
		e := at.Add(p.Agent.Name, int32(p.Agent.AS), tr.HopAddrs(), 0)
		at.BuildRRAliases(env.Prober, atlas.FixedSites(env.Sites), env.Alias, e)
		added++
		if added >= 15 {
			break
		}
	}
	if added == 0 {
		t.Skip("no traceroutes reached the source")
	}
	// The RR index should contain addresses beyond the traceroute hops
	// (egress interfaces revealed by the background RR probes).
	rrOnly := 0
	for _, e := range at.Entries {
		for _, h := range e.Hops {
			_ = h
		}
	}
	// Probe: take a later RR measurement toward the source from another
	// host and check whether any of its reverse stamps intersect.
	dst := env.ResponsiveHost(4, src.AS)
	rr := env.Prober.RRPing(src, dst.Addr)
	if rr.Responded {
		for _, x := range rr.Recorded {
			if ix, ok := at.Lookup(x); ok && ix.ViaRRAlias {
				rrOnly++
			}
		}
	}
	// At minimum the machinery must not corrupt direct lookups.
	for _, e := range at.Entries {
		for i, h := range e.Hops {
			x, ok := at.Lookup(h)
			if ok && x.Entry == e && x.Pos != i {
				t.Fatalf("direct hop %s has wrong position %d != %d", h, x.Pos, i)
			}
		}
	}
	t.Logf("atlas entries=%d rr-alias hits in sample=%d", added, rrOnly)
}

func TestServiceBuildAndRefresh(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 20, 4)
	at := svc.BuildFor(src)
	if at.Size() == 0 {
		t.Fatal("empty atlas")
	}
	size1 := at.Size()
	// Mark a couple useful and refresh: useful ones stay (same probe),
	// the rest get replaced.
	kept := map[string]bool{}
	for i, e := range at.Entries {
		if i < 3 {
			e.MarkUseful()
			kept[e.ProbeName] = true
		}
	}
	svc.Refresh(at)
	if at.Size() < size1/2 {
		t.Fatalf("refresh shrank atlas too much: %d -> %d", size1, at.Size())
	}
	found := 0
	for _, e := range at.Entries {
		if kept[e.ProbeName] {
			found++
		}
		if e.WasUseful() {
			t.Fatal("useful flags not reset after refresh")
		}
	}
	if found == 0 {
		t.Error("no useful entries survived refresh")
	}
}

// TestDoubletreeEntriesCopyTheMetSuffix: every Service-built entry is the
// traceroute its probe measured up to the first hop the atlas held, then
// the holding entry's suffix from that hop on — so Hops still runs all
// the way to the source — and sharing hops near the source cut the
// traceroute packets below one per hop.
func TestDoubletreeEntriesCopyTheMetSuffix(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 20, 4)
	before := env.Prober.Count
	at := svc.BuildFor(src)
	hops, met := 0, 0
	for _, e := range at.Entries {
		hops += len(e.Hops)
		if e.Hops[len(e.Hops)-1] != src.Addr {
			t.Fatalf("entry %s does not end at the source: %v", e.ProbeName, e.Hops)
		}
		for i, h := range e.Hops[:len(e.Hops)-1] {
			if x, _ := at.Lookup(h); x.Entry != e {
				if !slices.Equal(e.Hops[i+1:], x.Suffix) {
					t.Fatalf("entry %s met %s at hop %d: suffix %v, holder's %v", e.ProbeName, x.Entry.ProbeName, i, e.Hops[i+1:], x.Suffix)
				}
				met++
				break
			}
		}
	}
	if tr := env.Prober.Count.Sub(before).Traceroute; met == 0 || tr >= uint64(hops) {
		t.Fatalf("%d of %d entries met the atlas; %d traceroute packets for %d hops", met, at.Size(), tr, hops)
	}
}

func TestRateLimitStopsAtlasGrowth(t *testing.T) {
	env := simtest.New(t, 300, 4)
	src := env.Agent(env.SourceHost(0))
	for _, p := range env.Probes {
		p.Credits = 0
	}
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, ip2as.Origin{Topo: env.Topo}, 20, 4)
	at := svc.BuildFor(src)
	if at.Size() != 0 {
		t.Fatalf("atlas built despite exhausted credits: %d", at.Size())
	}
}
