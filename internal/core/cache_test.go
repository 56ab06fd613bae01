package core_test

import (
	"context"

	"testing"

	"revtr/internal/core"
)

// TestCacheTTLExpiry: cached RR results are reused within the TTL window
// and re-measured after it — the Insight 1.4 one-day reuse policy.
func TestCacheTTLExpiry(t *testing.T) {
	opts := core.Revtr20Options()
	opts.CacheTTLUS = 1_000_000 // one virtual second, for the test
	h, eng := newHarness(t, &opts)

	var dstAddr = h.env.ResponsiveHost(2, h.src.Agent.AS).Addr
	r1 := eng.MeasureReverse(context.Background(), h.src, dstAddr)
	p1 := r1.Probes.RR + r1.Probes.SpoofRR

	// Within the TTL: RR results come from cache.
	r2 := eng.MeasureReverse(context.Background(), h.src, dstAddr)
	p2 := r2.Probes.RR + r2.Probes.SpoofRR
	if p2 > p1 {
		t.Errorf("cached re-measurement used more RR probes (%d > %d)", p2, p1)
	}

	// Past the TTL: the engine must probe again.
	h.env.Prober.Advance(2_000_000)
	r3 := eng.MeasureReverse(context.Background(), h.src, dstAddr)
	p3 := r3.Probes.RR + r3.Probes.SpoofRR
	if r1.Status == core.StatusComplete && p1 > 0 && p3 == 0 {
		t.Error("expired cache still served RR results")
	}
}

// TestSuspectFlagConsistency: every "*"-flagged hop must actually sit
// after an AS-level jump that is not a known adjacency (§5.2.2's
// suspicious-link rule), and unflagged transitions must be adjacencies.
func TestSuspectFlagConsistency(t *testing.T) {
	h, eng := newHarness(t, nil)
	flagged := 0
	for i := 0; i < 80; i++ {
		dst := h.env.ResponsiveHost(i, h.src.Agent.AS)
		if dst == nil {
			break
		}
		res := eng.MeasureReverse(context.Background(), h.src, dst.Addr)
		prevAS := -1
		for _, hop := range res.Hops {
			asn, ok := eng.Mapper.ASOf(hop.Addr)
			if !ok {
				continue // unmappable (private) hops carry no flag info
			}
			if prevAS >= 0 && int(asn) != prevAS {
				adjacent := h.env.Topo.ASes[prevAS].Neighbor(asn) != nil
				if hop.SuspectBefore && adjacent {
					t.Fatalf("hop %s flagged but AS%d-AS%d are adjacent", hop.Addr, prevAS, asn)
				}
				if !hop.SuspectBefore && !adjacent {
					t.Fatalf("hop %s unflagged but AS%d-AS%d are not adjacent", hop.Addr, prevAS, asn)
				}
				if hop.SuspectBefore {
					flagged++
				}
			}
			prevAS = int(asn)
		}
	}
	t.Logf("suspect flags observed: %d", flagged)
}
