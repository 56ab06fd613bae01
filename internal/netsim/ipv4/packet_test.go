package ipv4

import (
	"math/rand"
	"testing"
)

func TestBuildEchoRequestDecodes(t *testing.T) {
	src, dst := MustParseAddr("1.1.1.1"), MustParseAddr("2.2.2.2")
	pkt := BuildEchoRequest(src, dst, 7, 3, 64, RRSlots, nil)
	if !VerifyChecksum(pkt) {
		t.Fatal("bad IP checksum")
	}
	var h Header
	payload, err := h.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != src || h.Dst != dst || !h.HasRR || h.RR.Slots != RRSlots || h.RR.N != 0 {
		t.Fatalf("header mismatch: %+v", h)
	}
	var m ICMP
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPEchoRequest || m.ID != 7 || m.Seq != 3 {
		t.Fatalf("icmp mismatch: %+v", m)
	}
	if !VerifyICMPChecksum(payload) {
		t.Fatal("bad ICMP checksum")
	}
}

func TestFixedOffsetAccessors(t *testing.T) {
	src, dst := MustParseAddr("9.8.7.6"), MustParseAddr("1.2.3.4")
	pkt := BuildEchoRequest(src, dst, 1, 1, 33, 0, nil)
	if PacketSrc(pkt) != src || PacketDst(pkt) != dst || PacketTTL(pkt) != 33 || PacketProto(pkt) != ProtoICMP {
		t.Error("accessor mismatch")
	}
	if PacketHeaderLen(pkt) != HeaderLen {
		t.Errorf("header len = %d", PacketHeaderLen(pkt))
	}
}

func TestDecrementTTLKeepsChecksum(t *testing.T) {
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, RRSlots, nil)
	for i := 0; i < 63; i++ {
		DecrementTTL(pkt)
		if !VerifyChecksum(pkt) {
			t.Fatalf("checksum broken at ttl %d", PacketTTL(pkt))
		}
	}
	if PacketTTL(pkt) != 1 {
		t.Errorf("ttl = %d", PacketTTL(pkt))
	}
}

// TestStampRecordRouteNeverExceedsSlots is the central RR-option invariant:
// no matter how many routers stamp, at most Slots addresses are recorded
// and the checksum stays valid.
func TestStampRecordRouteNeverExceedsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for slots := 1; slots <= RRSlots; slots++ {
		pkt := BuildEchoRequest(1, 2, 1, 1, 64, slots, nil)
		stamped := 0
		for i := 0; i < 20; i++ {
			if StampRecordRoute(pkt, Addr(rng.Uint32())) {
				stamped++
			}
			if !VerifyChecksum(pkt) {
				t.Fatalf("slots=%d: checksum broken after stamp %d", slots, i)
			}
		}
		if stamped != slots {
			t.Errorf("slots=%d: stamped %d", slots, stamped)
		}
		var h Header
		if _, err := h.Decode(pkt); err != nil {
			t.Fatalf("slots=%d: decode: %v", slots, err)
		}
		if h.RR.N != slots {
			t.Errorf("slots=%d: decoded N=%d", slots, h.RR.N)
		}
	}
}

func TestStampRecordRouteOrder(t *testing.T) {
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, RRSlots, nil)
	want := []Addr{100, 200, 300}
	for _, a := range want {
		if !StampRecordRoute(pkt, a) {
			t.Fatal("stamp refused")
		}
	}
	var h Header
	if _, err := h.Decode(pkt); err != nil {
		t.Fatal(err)
	}
	for i, a := range want {
		if h.RR.Routes[i] != a {
			t.Errorf("slot %d = %v, want %v", i, h.RR.Routes[i], a)
		}
	}
}

func TestStampRecordRouteNoOption(t *testing.T) {
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, 0, nil)
	if StampRecordRoute(pkt, 42) {
		t.Error("stamped a packet with no RR option")
	}
}

// TestStampTimestampOrdering verifies tsprespec semantics: the second
// prespecified address can only stamp after the first has.
func TestStampTimestampOrdering(t *testing.T) {
	a1, a2 := Addr(10), Addr(20)
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, 0, []Addr{a1, a2})
	if StampTimestamp(pkt, a2, 5) {
		t.Fatal("out-of-order stamp accepted")
	}
	if !StampTimestamp(pkt, a1, 5) {
		t.Fatal("first stamp refused")
	}
	if StampTimestamp(pkt, a1, 6) {
		t.Fatal("re-stamp of first address accepted")
	}
	if !StampTimestamp(pkt, a2, 7) {
		t.Fatal("second stamp refused after first")
	}
	if !VerifyChecksum(pkt) {
		t.Fatal("checksum broken")
	}
	var h Header
	if _, err := h.Decode(pkt); err != nil {
		t.Fatal(err)
	}
	if !h.TS.Pairs[0].Stamped || h.TS.Pairs[0].Stamp != 5 {
		t.Errorf("pair 0: %+v", h.TS.Pairs[0])
	}
	if !h.TS.Pairs[1].Stamped || h.TS.Pairs[1].Stamp != 7 {
		t.Errorf("pair 1: %+v", h.TS.Pairs[1])
	}
}

func TestEchoReplyCopiesOptions(t *testing.T) {
	src, dst := Addr(0x01010101), Addr(0x02020202)
	pkt := BuildEchoRequest(src, dst, 9, 1, 64, RRSlots, nil)
	// Simulate three forward hops stamping.
	for _, a := range []Addr{11, 12, 13} {
		StampRecordRoute(pkt, a)
	}
	reply := BuildEchoReply(pkt, dst, 64)
	if PacketSrc(reply) != dst || PacketDst(reply) != src {
		t.Fatal("reply addressing wrong")
	}
	if !VerifyChecksum(reply) {
		t.Fatal("reply checksum invalid")
	}
	var h Header
	payload, err := h.Decode(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasRR || h.RR.N != 3 {
		t.Fatalf("options not copied: %+v", h.RR)
	}
	var m ICMP
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPEchoReply || m.ID != 9 {
		t.Fatalf("reply icmp: %+v", m)
	}
	if !VerifyICMPChecksum(payload) {
		t.Fatal("reply icmp checksum invalid")
	}
	// Reverse hops continue stamping in the copied option.
	if !StampRecordRoute(reply, 14) {
		t.Fatal("reverse stamp refused")
	}
	h = Header{}
	if _, err := h.Decode(reply); err != nil {
		t.Fatal(err)
	}
	if h.RR.N != 4 || h.RR.Routes[3] != 14 {
		t.Fatalf("reverse hop not recorded: %+v", h.RR)
	}
}

func TestTimeExceededEmbedsOriginal(t *testing.T) {
	src, dst := Addr(0x0a000001), Addr(0x0a000002)
	orig := BuildEchoRequest(src, dst, 0x4242, 5, 1, RRSlots, nil)
	router := Addr(0x0b000001)
	te := BuildTimeExceeded(orig, router, 64)
	if PacketSrc(te) != router || PacketDst(te) != src {
		t.Fatal("time-exceeded addressing wrong")
	}
	var h Header
	payload, err := h.Decode(te)
	if err != nil {
		t.Fatal(err)
	}
	if h.HasRR {
		t.Error("ICMP error must not carry options")
	}
	var m ICMP
	if err := m.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if m.Type != ICMPTimeExceeded {
		t.Fatalf("type = %d", m.Type)
	}
	var emb Header
	if _, err := emb.Decode(m.Payload); err != nil || emb.Src != src || emb.Dst != dst || emb.ID != 0x4242 {
		t.Fatalf("embedded original mismatch: %v %v %v %v", emb.Src, emb.Dst, emb.ID, err)
	}
}

func TestICMPChecksumOddLength(t *testing.T) {
	m := ICMP{Type: ICMPEchoRequest, ID: 1, Seq: 2, Payload: []byte{0xab}}
	b := m.Marshal(nil)
	if !VerifyICMPChecksum(b) {
		t.Error("odd-length checksum invalid")
	}
}

func BenchmarkStampRecordRoute(b *testing.B) {
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, RRSlots, nil)
	tpl := make([]byte, len(pkt))
	copy(tpl, pkt)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(pkt, tpl)
		StampRecordRoute(pkt, Addr(i))
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	pkt := BuildEchoRequest(1, 2, 1, 1, 64, RRSlots, nil)
	for _, a := range []Addr{11, 12, 13, 14, 15} {
		StampRecordRoute(pkt, a)
	}
	var h Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.Decode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
