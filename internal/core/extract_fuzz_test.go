package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"revtr/internal/netsim/ipv4"
)

// lowBitAliases resolves two addresses that differ only in bit 8 as one
// router: enough of an alias dataset for the marker search to use.
type lowBitAliases struct{}

func (lowBitAliases) SameRouter(a, b ipv4.Addr) bool { return a^b == 0x100 }
func (lowBitAliases) Known(ipv4.Addr) bool           { return true }

// FuzzExtractReverse reads arbitrary Record Route arrays (four bytes a
// stamp, any length — a decoder bug upstream must not become a panic
// here). For any array and target: the marker is -1 or a slot of the
// array; the hops are exactly what follows the marker with adjacent
// repeats removed, and none when there is no marker; and the reply counts
// as out of range exactly when all nine slots are full with the marker in
// the last or nowhere — which never is a reply that revealed hops.
func FuzzExtractReverse(f *testing.F) {
	stamps := func(as ...uint32) []byte {
		var out []byte
		for _, a := range as {
			out = binary.BigEndian.AppendUint32(out, a)
		}
		return out
	}
	f.Add([]byte{}, uint32(7), false)
	f.Add(stamps(1, 2, 7, 8, 9), uint32(7), false)               // exact match, two reverse hops
	f.Add(stamps(1, 2, 7, 7, 8, 8, 9), uint32(7), false)         // double stamp, repeated reverse hop
	f.Add(stamps(1, 2, 0x107, 8), uint32(7), true)               // alias of the target
	f.Add(stamps(1, 2, 6, 8, 9), uint32(5), false)               // /30 neighbour of the target
	f.Add(stamps(1, 2, 3, 2, 4), uint32(99), false)              // loop a - S - a
	f.Add(stamps(1, 2, 3, 4, 5, 6, 8, 9, 7), uint32(7), false)   // nine slots, target last
	f.Add(stamps(1, 2, 3, 4, 5, 6, 8, 9, 10), uint32(99), false) // nine slots, no marker
	f.Add(stamps(1, 2, 3, 4, 5, 6, 8, 9, 10, 11), uint32(11), false)

	f.Fuzz(func(t *testing.T, raw []byte, target uint32, aliases bool) {
		recorded := make([]ipv4.Addr, len(raw)/4)
		for i := range recorded {
			recorded[i] = ipv4.Addr(binary.BigEndian.Uint32(raw[4*i:]))
		}
		var hops []ipv4.Addr
		var marker int
		if aliases {
			hops, marker = extractReverse(recorded, ipv4.Addr(target), lowBitAliases{})
		} else {
			hops, marker = extractReverse(recorded, ipv4.Addr(target), nil)
		}
		if marker < -1 || marker >= len(recorded) {
			t.Fatalf("marker %d outside an array of %d", marker, len(recorded))
		}
		var want []ipv4.Addr
		if marker >= 0 {
			want = slices.Compact(slices.Clone(recorded[marker+1:]))
		}
		if len(hops) != len(want) || len(want) > 0 && !slices.Equal(hops, want) {
			t.Fatalf("recorded %v marker %d: hops %v, want %v", recorded, marker, hops, want)
		}
		far := outOfRange(recorded, marker)
		if want := len(recorded) == ipv4.RRSlots && (marker == -1 || marker == ipv4.RRSlots-1); far != want {
			t.Fatalf("recorded %v marker %d: out of range = %v, want %v", recorded, marker, far, want)
		}
		if far && len(hops) > 0 {
			t.Fatalf("recorded %v marker %d: out of range, yet it revealed %v", recorded, marker, hops)
		}
	})
}
