package measure

// Internal (white-box) edge-case tests for the Spec codec: probe
// identity derivation, per-kind counter deltas, and source resolution.
// These pin down the determinism contract the concurrent probe layer
// depends on — two Specs alike in what the probe is (kind, VP address,
// packet source, destination, TTL, prespecified addresses) and in salt
// MUST yield identical probe IDs and nonces, and any change to one of them
// must change the identity.

import (
	"slices"
	"testing"

	"revtr/internal/netsim/ipv4"
)

func TestProbeKeyDuplicateTuplesIdentical(t *testing.T) {
	vp := Agent{Addr: ipv4.MustParseAddr("10.0.0.1"), CanSpoof: true}
	src := ipv4.MustParseAddr("10.9.9.9")
	dst := ipv4.MustParseAddr("10.1.2.3")
	adj := ipv4.MustParseAddr("10.1.2.4")
	specs := []Spec{
		{Kind: KindPing, VP: vp, Dst: dst, Seq: 1},
		{Kind: KindRR, VP: vp, Dst: dst, Seq: 7},
		{Kind: KindSpoofedRR, VP: vp, Src: src, Dst: dst, Seq: 9},
		{Kind: KindTS, VP: vp, Dst: dst, Prespec: []ipv4.Addr{dst, adj}, Seq: 11},
		{Kind: KindSpoofedTS, VP: vp, Src: src, Dst: dst, Prespec: []ipv4.Addr{dst, adj}, Seq: 13},
		{Kind: KindTraceroutePkt, VP: vp, Dst: dst, TTL: 5, Seq: 15},
	}
	for _, sp := range specs {
		id1, n1 := probeKey(sp)
		// A copy alike in content and salt — built apart, its prespec list
		// another slice, its VP another record of the same address —
		// derives the identical identity.
		cp := sp
		cp.VP = Agent{Addr: vp.Addr, Router: 42, Name: "other"}
		cp.Prespec = slices.Clone(sp.Prespec)
		id2, n2 := probeKey(cp)
		if id1 != id2 || n1 != n2 {
			t.Errorf("kind %v: equal content and salt produced different identity: (%d,%d) vs (%d,%d)",
				sp.Kind, id1, n1, id2, n2)
		}
	}
}

func TestProbeKeyDistinguishesTuple(t *testing.T) {
	vp := Agent{Addr: ipv4.MustParseAddr("10.0.0.1")}
	site := Agent{Addr: ipv4.MustParseAddr("10.7.7.7")}
	src := ipv4.MustParseAddr("10.5.5.5")
	dst := ipv4.MustParseAddr("10.1.2.3")
	adj := ipv4.MustParseAddr("10.1.2.4")
	for _, tc := range []struct {
		name       string
		base, diff Spec
	}{
		{"kind", Spec{Kind: KindRR, VP: vp, Dst: dst, Seq: 5}, Spec{Kind: KindTS, VP: vp, Dst: dst, Seq: 5}},
		{"salt", Spec{Kind: KindRR, VP: vp, Dst: dst, Seq: 5}, Spec{Kind: KindRR, VP: vp, Dst: dst, Seq: 6}},
		{"dst", Spec{Kind: KindRR, VP: vp, Dst: dst, Seq: 5}, Spec{Kind: KindRR, VP: vp, Dst: dst + 1, Seq: 5}},
		{"src", Spec{Kind: KindRR, VP: vp, Dst: dst, Seq: 5}, Spec{Kind: KindRR, VP: Agent{Addr: vp.Addr + 1}, Dst: dst, Seq: 5}},
		{"spoofed src", Spec{Kind: KindSpoofedRR, VP: vp, Dst: dst, Seq: 5}, Spec{Kind: KindSpoofedRR, VP: vp, Src: src, Dst: dst, Seq: 5}},
		// Two sites spoofing one source put the same header on the wire
		// but are two probes.
		{"VP", Spec{Kind: KindSpoofedRR, VP: vp, Src: src, Dst: dst, Seq: 5}, Spec{Kind: KindSpoofedRR, VP: site, Src: src, Dst: dst, Seq: 5}},
		{"TTL", Spec{Kind: KindTraceroutePkt, VP: vp, Dst: dst, TTL: 7, Seq: 5}, Spec{Kind: KindTraceroutePkt, VP: vp, Dst: dst, TTL: 8, Seq: 5}},
		{"prespec", Spec{Kind: KindTS, VP: vp, Dst: dst, Prespec: []ipv4.Addr{dst, adj}, Seq: 5},
			Spec{Kind: KindTS, VP: vp, Dst: dst, Prespec: []ipv4.Addr{dst, adj + 1}, Seq: 5}},
	} {
		_, n0 := probeKey(tc.base)
		if _, n := probeKey(tc.diff); n == n0 {
			t.Errorf("%s: two probes differing only in it share a nonce", tc.name)
		}
	}
}

func TestSpecSrcResolution(t *testing.T) {
	vp := Agent{Addr: ipv4.MustParseAddr("10.0.0.1")}
	spoofed := ipv4.MustParseAddr("10.9.9.9")
	if got := (Spec{VP: vp}).src(); got != vp.Addr {
		t.Errorf("unspoofed src = %s, want VP %s", got, vp.Addr)
	}
	if got := (Spec{VP: vp, Src: spoofed}).src(); got != spoofed {
		t.Errorf("spoofed src = %s, want %s", got, spoofed)
	}
}

func TestSpecDeltaTable(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want Counters
	}{
		{KindPing, Counters{Ping: 1}},
		{KindRR, Counters{RR: 1}},
		{KindSpoofedRR, Counters{SpoofRR: 1}},
		{KindTS, Counters{TS: 1}},
		{KindSpoofedTS, Counters{SpoofTS: 1}},
		{KindTraceroutePkt, Counters{Traceroute: 1}},
		{Kind(200), Counters{}},
	} {
		if got := (Spec{Kind: tc.kind}).Delta(); got != tc.want {
			t.Errorf("Delta(%v) = %+v, want %+v", tc.kind, got, tc.want)
		}
		if got, want := (Spec{Kind: tc.kind}).Delta().Total(), tc.want.Total(); got != want {
			t.Errorf("Delta(%v).Total() = %d, want %d", tc.kind, got, want)
		}
	}
}

func TestCountersScale(t *testing.T) {
	c := Counters{Ping: 1, RR: 2, SpoofRR: 3, TS: 4, SpoofTS: 5, Traceroute: 6}
	if got := c.Scale(0); got != (Counters{}) {
		t.Errorf("Scale(0) = %+v", got)
	}
	if got := c.Scale(1); got != c {
		t.Errorf("Scale(1) = %+v", got)
	}
	want := Counters{Ping: 3, RR: 6, SpoofRR: 9, TS: 12, SpoofTS: 15, Traceroute: 18}
	if got := c.Scale(3); got != want {
		t.Errorf("Scale(3) = %+v, want %+v", got, want)
	}
}

// TestRRSlotCap: the RR option carries at most ipv4.RRSlots (9)
// recorded addresses; a long forward path must not overflow the array,
// and the codec reports exactly the stamped prefix.
func TestRRSlotCap(t *testing.T) {
	src := ipv4.MustParseAddr("10.0.0.1")
	dst := ipv4.MustParseAddr("10.1.2.3")
	pkt := ipv4.BuildEchoRequest(src, dst, 1, 1, 64, ipv4.RRSlots, nil)
	// Stamp more addresses than there are slots.
	for i := 0; i < ipv4.RRSlots+5; i++ {
		ipv4.StampRecordRoute(pkt, ipv4.Addr(0x0a000100+uint32(i)))
	}
	var h ipv4.Header
	if _, err := h.Decode(pkt); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !h.HasRR {
		t.Fatal("RR option lost")
	}
	if h.RR.N != ipv4.RRSlots {
		t.Fatalf("recorded %d stamps, want the %d-slot cap", h.RR.N, ipv4.RRSlots)
	}
	rec := h.RR.Recorded()
	if len(rec) != ipv4.RRSlots {
		t.Fatalf("Recorded() returned %d addrs, want %d", len(rec), ipv4.RRSlots)
	}
	for i, a := range rec {
		if want := ipv4.Addr(0x0a000100 + uint32(i)); a != want {
			t.Fatalf("slot %d = %s, want %s (stamps past the cap must be discarded in order)", i, a, want)
		}
	}
}
