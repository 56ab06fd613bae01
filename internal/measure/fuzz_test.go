package measure_test

import (
	"reflect"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

// FuzzSpecCodec drives arbitrary probe Specs through Issue against a
// small fabric. The codec contract under fuzz: Issue never panics for
// any Spec (garbage addresses, out-of-range kinds, wild TTLs and
// sequence numbers included), issuing the same Spec at the same virtual
// time twice is bit-identical (the determinism guarantee the concurrent
// probe layer rests on), Record Route never records more than its nine
// slots, an answered one states how far its reply came, RTTs are never
// negative, and per-kind counter deltas account exactly one probe for
// known kinds and zero for unknown ones.
func FuzzSpecCodec(f *testing.F) {
	env := simtest.New(f, 300, 1)
	src := env.Agent(env.SourceHost(0))
	someDst := env.ResponsiveHost(0, src.AS)

	f.Add(uint8(0), uint16(0), uint32(0), uint32(someDst.Addr), uint8(0), uint64(1), int64(0), false)
	f.Add(uint8(1), uint16(1), uint32(0), uint32(someDst.Addr), uint8(0), uint64(2), int64(1000), false)
	f.Add(uint8(2), uint16(2), uint32(src.Addr), uint32(someDst.Addr), uint8(0), uint64(3), int64(5_000_000), false)
	f.Add(uint8(3), uint16(0), uint32(0), uint32(someDst.Addr), uint8(0), uint64(4), int64(0), true)
	f.Add(uint8(4), uint16(1), uint32(src.Addr), uint32(someDst.Addr), uint8(0), uint64(5), int64(0), true)
	f.Add(uint8(5), uint16(0), uint32(0), uint32(someDst.Addr), uint8(30), uint64(6), int64(0), false)
	f.Add(uint8(250), uint16(9), uint32(1), uint32(2), uint8(255), uint64(0), int64(-1), true)
	f.Add(uint8(2), uint16(7), uint32(src.Addr), uint32(someDst.Addr), uint8(64), uint64(7), int64(0), false) // spoofed RR from another site: its reply's TTL must read as a distance

	f.Fuzz(func(t *testing.T, kind uint8, vpSel uint16, srcRaw, dstRaw uint32, ttl uint8, seq uint64, nowUS int64, prespec bool) {
		vp := src
		if len(env.Sites) > 0 {
			vp = env.Sites[int(vpSel)%len(env.Sites)]
		}
		sp := measure.Spec{
			Kind: measure.Kind(kind),
			VP:   vp,
			Src:  ipv4.Addr(srcRaw),
			Dst:  ipv4.Addr(dstRaw),
			TTL:  ttl,
			Seq:  seq,
		}
		if prespec {
			sp.Prespec = []ipv4.Addr{ipv4.Addr(dstRaw), ipv4.Addr(srcRaw)}
		}

		r1 := measure.Issue(env.Fabric, sp, nowUS)
		r2 := measure.Issue(env.Fabric, sp, nowUS)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("Issue is not deterministic for %+v at %d:\n%+v\nvs\n%+v", sp, nowUS, r1, r2)
		}
		if n := len(r1.RR.Recorded); n > ipv4.RRSlots {
			t.Fatalf("RR recorded %d hops > %d slots", n, ipv4.RRSlots)
		}
		if h := measure.ReverseHops(r1.RR.ReplyTTL); r1.RR.Responded && h < 0 {
			t.Fatalf("answered RR reply with TTL %d reads as %d hops", r1.RR.ReplyTTL, h)
		}
		if rtt := r1.RTTUS(); rtt < 0 {
			t.Fatalf("negative RTT %d for %+v", rtt, sp)
		}
		if d := sp.Delta(); sp.Kind <= measure.KindTraceroutePkt {
			if d.Total() != 1 {
				t.Fatalf("known kind %v delta %+v accounts %d probes, want 1", sp.Kind, d, d.Total())
			}
		} else if d.Total() != 0 {
			t.Fatalf("unknown kind %v accounted %d probes, want 0", sp.Kind, d.Total())
		}
		if r1.VPDead && r1.Sent {
			t.Fatalf("reply claims both VPDead and Sent: %+v", r1)
		}
	})
}
