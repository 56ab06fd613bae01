package atlas

import (
	"testing"

	"revtr/internal/alias"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
)

// TestRemoveHandsRRAliasOn: an RR alias aligned to a hop two entries
// share still resolves once the entry whose probe revealed it is removed,
// now through the surviving entry. Once no entry holds its hop, the next
// probe that records the alias takes it over.
func TestRemoveHandsRRAliasOn(t *testing.T) {
	addr := ipv4.MustParseAddr
	at := New(measure.Agent{Addr: addr("1.0.0.1")})
	e1 := at.Add("p0", 1, []ipv4.Addr{addr("2.0.0.1"), addr("3.0.0.1"), addr("4.0.0.1"), addr("1.0.0.1")}, 0)
	e2 := at.Add("p1", 2, []ipv4.Addr{addr("5.0.0.1"), addr("3.0.0.1"), addr("4.0.0.1"), addr("1.0.0.1")}, 0)
	// The RR ping to 3.0.0.1 recorded it, then 9.9.9.9 one position on.
	at.associate([]ipv4.Addr{addr("3.0.0.1"), addr("9.9.9.9")}, e1, 1, nil, alias.Slash30{})
	at.Remove(e1)
	x, ok := at.Lookup(addr("9.9.9.9"))
	if !ok || !x.ViaRRAlias || x.Entry != e2 || x.Pos != 2 {
		t.Fatalf("alias after removing the entry that revealed it: %+v, %v", x, ok)
	}
	at.Remove(e2)
	if _, ok := at.Lookup(addr("9.9.9.9")); ok {
		t.Fatal("alias resolves with no entry holding its hop")
	}
	e3 := at.Add("p2", 3, []ipv4.Addr{addr("6.0.0.1"), addr("7.0.0.1"), addr("1.0.0.1")}, 0)
	at.associate([]ipv4.Addr{addr("6.0.0.1"), addr("9.9.9.9")}, e3, 0, nil, alias.Slash30{})
	if x, ok := at.Lookup(addr("9.9.9.9")); !ok || x.Entry != e3 || x.Pos != 1 {
		t.Fatalf("alias recorded again after its hop left: %+v, %v", x, ok)
	}
}
