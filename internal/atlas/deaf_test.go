package atlas_test

import (
	"maps"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/simtest"
)

// deafASes returns the ASes RRDeaf names deaf.
func deafASes(at *atlas.Atlas) map[topology.ASN]bool {
	out := map[topology.ASN]bool{}
	for asn, deaf := range at.RRDeaf {
		if deaf {
			out[asn] = true
		}
	}
	return out
}

// TestRRDeaf: an AS is deaf when entries hold two RR-probed hops of it or
// more and none of them answered. One silent hop alone, a hop repeated, a
// hop never probed or one the mapper cannot place is no evidence; one
// answered hop clears the AS, wherever it lies; a hop only a removed entry
// held stops counting at the next summary.
func TestRRDeaf(t *testing.T) {
	const src = "1.0.0.1"
	for _, tc := range []struct {
		name     string
		entries  [][]string
		probed   map[string]bool // hop -> answered
		remove   int             // index of an entry removed before the summary, -1 for none
		wantDeaf []topology.ASN
	}{
		{"two silent hops", [][]string{{"2.0.0.1", "2.0.0.2", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false}, -1, []topology.ASN{2}},
		{"two silent hops in two entries", [][]string{{"2.0.0.1", "3.0.0.1", src}, {"2.0.0.2", "3.0.0.1", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false, "3.0.0.1": true}, -1, []topology.ASN{2}},
		{"one silent hop", [][]string{{"2.0.0.1", "3.0.0.1", src}},
			map[string]bool{"2.0.0.1": false, "3.0.0.1": true}, -1, nil},
		{"one silent hop in two entries", [][]string{{"2.0.0.1", src}, {"4.0.0.1", "2.0.0.1", src}},
			map[string]bool{"2.0.0.1": false, "4.0.0.1": true}, -1, nil},
		{"answered first", [][]string{{"2.0.0.3", "2.0.0.1", "2.0.0.2", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false, "2.0.0.3": true}, -1, nil},
		{"answered last", [][]string{{"2.0.0.1", "2.0.0.2", "2.0.0.3", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false, "2.0.0.3": true}, -1, nil},
		{"answered in another entry", [][]string{{"2.0.0.1", "2.0.0.2", src}, {"2.0.0.3", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false, "2.0.0.3": true}, -1, nil},
		{"never probed", [][]string{{"2.0.0.1", "2.0.0.2", src}},
			map[string]bool{"2.0.0.1": false}, -1, nil},
		{"unmapped", [][]string{{"10.0.0.1", "10.0.0.2", src}},
			map[string]bool{"10.0.0.1": false, "10.0.0.2": false}, -1, nil},
		{"probed off every entry", [][]string{{"2.0.0.1", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.9": false}, -1, nil},
		{"answering entry removed", [][]string{{"2.0.0.3", src}, {"2.0.0.1", "2.0.0.2", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false, "2.0.0.3": true}, 0, []topology.ASN{2}},
		{"silent entry removed", [][]string{{"2.0.0.1", src}, {"2.0.0.2", src}},
			map[string]bool{"2.0.0.1": false, "2.0.0.2": false}, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := atlas.New(measure.Agent{Addr: a(src)})
			var es []*atlas.Entry
			for i, hops := range tc.entries {
				var hs []ipv4.Addr
				for _, h := range hops {
					hs = append(hs, a(h))
				}
				es = append(es, at.Add("p", int32(7+i), hs, 0))
			}
			for h, answered := range tc.probed {
				at.SetProbed(a(h), answered)
			}
			if tc.remove >= 0 {
				at.Summarize(octetAS{})
				at.Remove(es[tc.remove])
			}
			at.Summarize(octetAS{})
			want := map[topology.ASN]bool{}
			for _, asn := range tc.wantDeaf {
				want[asn] = true
			}
			if got := deafASes(at); !maps.Equal(got, want) {
				t.Fatalf("deaf ASes %v, want %v (RRDeaf %v)", got, want, at.RRDeaf)
			}
		})
	}
	at := atlas.New(measure.Agent{Addr: a(src)})
	at.Summarize(octetAS{})
	if at.RRDeaf != nil {
		t.Fatalf("empty atlas: RRDeaf %v", at.RRDeaf)
	}
}

// TestRRSpoofedOnly: an AS is reached only by spoofed pings when an
// entry's hop of it answered a spoofed RR ping and not the source's own,
// whatever its other hops drew; a hop only a removed entry held stops
// counting at the next summary. Such a hop clears the AS of deafness.
func TestRRSpoofedOnly(t *testing.T) {
	const src = "1.0.0.1"
	for _, tc := range []struct {
		name    string
		entries [][]string
		spoofed []string        // hops only a spoofed ping reached
		direct  map[string]bool // other probed hops -> answered
		remove  int             // index of an entry removed before the summary, -1 for none
		want    []topology.ASN
	}{
		{"one hop reached only by a spoofed ping", [][]string{{"2.0.0.1", "3.0.0.1", src}},
			[]string{"2.0.0.1"}, map[string]bool{"3.0.0.1": true}, -1, []topology.ASN{2}},
		{"beside a hop that answered the source", [][]string{{"2.0.0.1", "2.0.0.2", src}},
			[]string{"2.0.0.2"}, map[string]bool{"2.0.0.1": true}, -1, []topology.ASN{2}},
		{"beside silent hops", [][]string{{"2.0.0.1", "2.0.0.2", "2.0.0.3", src}},
			[]string{"2.0.0.3"}, map[string]bool{"2.0.0.1": false, "2.0.0.2": false}, -1, []topology.ASN{2}},
		{"direct replies and silence only", [][]string{{"2.0.0.1", "3.0.0.1", src}},
			nil, map[string]bool{"2.0.0.1": true, "3.0.0.1": false}, -1, nil},
		{"probed off every entry", [][]string{{"2.0.0.1", src}},
			[]string{"3.0.0.1"}, map[string]bool{"2.0.0.1": true}, -1, nil},
		{"its entry removed", [][]string{{"2.0.0.1", src}, {"3.0.0.1", src}},
			[]string{"2.0.0.1"}, map[string]bool{"3.0.0.1": true}, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := atlas.New(measure.Agent{Addr: a(src)})
			var es []*atlas.Entry
			for i, hops := range tc.entries {
				var hs []ipv4.Addr
				for _, h := range hops {
					hs = append(hs, a(h))
				}
				es = append(es, at.Add("p", int32(7+i), hs, 0))
			}
			for h, answered := range tc.direct {
				at.SetProbed(a(h), answered)
			}
			for _, h := range tc.spoofed {
				at.SetSpoofedOnly(a(h))
			}
			if tc.remove >= 0 {
				at.Summarize(octetAS{})
				at.Remove(es[tc.remove])
			}
			at.Summarize(octetAS{})
			want := map[topology.ASN]bool{}
			for _, asn := range tc.want {
				want[asn] = true
			}
			if !maps.Equal(at.RRSpoofedOnly, want) {
				t.Fatalf("RRSpoofedOnly %v, want %v", at.RRSpoofedOnly, want)
			}
			if got := deafASes(at); len(got) != 0 {
				t.Fatalf("deaf ASes %v, want none", got)
			}
		})
	}
}

// TestRRDeafHeardDirectOrSpoofed: a build records a hop answered when its
// direct ping drew a reply or, failing that, one of the spoofed pings the
// picker's sites sent — under loss, so some direct pings go unanswered
// that a spoofed one makes up for. A picker is asked only about hops whose
// direct ping drew nothing; one that names no site leaves them unanswered.
// After a refresh RRDeaf is what the surviving entries' hops give: the
// ASes only dropped entries crossed silently leave it.
func TestRRDeafHeardDirectOrSpoofed(t *testing.T) {
	env := simtest.NewFaulty(t, 300, 5, &faults.Plan{Seed: 5, LinkLoss: 0.05})
	src := env.Agent(env.SourceHost(0))
	m := ip2as.Origin{Topo: env.Topo}
	for _, spoof := range []bool{false, true} {
		asked := map[ipv4.Addr]bool{}
		pick := func(h ipv4.Addr) []measure.Agent {
			asked[h] = true
			if spoof {
				return env.Sites
			}
			return nil
		}
		svc := atlas.NewService(env.Prober, env.Probes, pick, env.Alias, m, 20, 5)
		at := svc.BuildFor(src)
		direct, spoofed, silent := 0, 0, 0
		for _, e := range at.Entries {
			for _, h := range e.Hops {
				answered, probed := at.Answered(h)
				switch {
				case h == src.Addr: // answers its own ping with nothing recorded
				case !probed:
					t.Fatalf("spoof=%v: hop %s of an entry was not probed", spoof, h)
				case !asked[h] && (!answered || at.SpoofedOnly(h)):
					t.Fatalf("spoof=%v: hop %s: its direct ping was answered, recorded silent or spoofed only", spoof, h)
				case !asked[h]:
					direct++
				case answered && !spoof:
					t.Fatalf("spoof=%v: hop %s: no ping answered, recorded answered", spoof, h)
				case answered:
					if asn, ok := m.ASOf(h); ok && at.SpoofedOnly(h) && !at.RRSpoofedOnly[asn] {
						t.Fatalf("spoof=%v: hop %s reached only by a spoofed ping, AS %d not in RRSpoofedOnly", spoof, h, asn)
					}
					spoofed++
				default:
					silent++
				}
			}
		}
		t.Logf("spoof=%v: hop slots answered direct %d, spoofed %d, silent %d; %d ASes reached only by spoofed pings", spoof, direct, spoofed, silent, len(at.RRSpoofedOnly))
		if direct == 0 || silent == 0 || spoof && (spoofed == 0 || len(at.RRSpoofedOnly) == 0) {
			t.Fatalf("spoof=%v: the build exercises too little", spoof)
		}
	}

	// After a refresh that keeps three entries, and replaces none, RRDeaf is
	// what the entries that survived it give.
	svc := atlas.NewService(env.Prober, env.Probes, atlas.FixedSites(env.Sites), env.Alias, m, 20, 5)
	at := svc.BuildFor(src)
	before := deafASes(at)
	kept := map[string]bool{}
	for _, e := range at.Entries[:3] {
		e.MarkUseful()
		kept[e.ProbeName] = true
	}
	for _, p := range env.Probes {
		if !kept[p.Agent.Name] {
			p.Credits = 0
		}
	}
	svc.Refresh(at)
	heard, silent := map[topology.ASN]bool{}, map[topology.ASN]map[ipv4.Addr]bool{}
	for _, e := range at.Entries {
		for _, h := range e.Hops {
			asn, ok := m.ASOf(h)
			answered, probed := at.Answered(h)
			if !ok || !probed {
				continue
			}
			if answered {
				heard[asn] = true
			} else if silent[asn] == nil {
				silent[asn] = map[ipv4.Addr]bool{h: true}
			} else {
				silent[asn][h] = true
			}
		}
	}
	want := map[topology.ASN]bool{}
	for asn, hs := range silent {
		if !heard[asn] && len(hs) >= 2 {
			want[asn] = true
		}
	}
	if got := deafASes(at); at.Size() > 3 || !maps.Equal(got, want) || maps.Equal(got, before) {
		t.Fatalf("after a refresh kept %d entries: deaf ASes %v (%v before), the entries give %v", at.Size(), got, before, want)
	}
}
