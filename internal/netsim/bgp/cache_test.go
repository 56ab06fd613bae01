package bgp

import (
	"sync"
	"testing"

	"revtr/internal/netsim/topology"
)

// TestTreeCacheEvictsByRecency: a tree used since its insertion outlives
// an older insertion that was not (FIFO would drop it first).
func TestTreeCacheEvictsByRecency(t *testing.T) {
	r := NewRouting(testTopo(t, 300), DefaultTieBreak(1), 3)
	t1, t2 := r.TreeTo(1), r.TreeTo(2)
	r.TreeTo(3)
	r.TreeTo(1) // 1 is now more recent than 2
	r.TreeTo(4) // full: evicts 2
	if r.TreeTo(1) != t1 {
		t.Error("the recently used tree was evicted")
	}
	if r.TreeTo(2) == t2 {
		t.Error("the least recently used tree was kept")
	}
}

// TestTreeCacheHoldsEveryAS: with maxCache at the AS count nothing is
// ever evicted, whatever the order of use.
func TestTreeCacheHoldsEveryAS(t *testing.T) {
	topo := testTopo(t, 150)
	r := NewRouting(topo, DefaultTieBreak(1), len(topo.ASes))
	first := make([]*Tree, len(topo.ASes))
	for a := range first {
		first[a] = r.TreeTo(topology.ASN(a))
	}
	for a := len(first) - 1; a >= 0; a-- {
		if r.TreeTo(topology.ASN(a)) != first[a] {
			t.Fatalf("tree toward AS%d was recomputed", a)
		}
	}
}

// TestTreeToConcurrentMissPublishesOnce: callers that miss together all
// leave with the one tree that was published.
func TestTreeToConcurrentMissPublishesOnce(t *testing.T) {
	r := NewRouting(testTopo(t, 300), DefaultTieBreak(1), 16)
	const workers = 8
	got := make([]*Tree, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = r.TreeTo(7)
		}(w)
	}
	wg.Wait()
	for w, tr := range got {
		if tr != got[0] {
			t.Fatalf("worker %d holds a different tree than worker 0", w)
		}
	}
	if r.TreeTo(7) != got[0] {
		t.Error("the published tree is not the one the callers hold")
	}
}

// TestTreeToDropsTreeComputedAcrossInvalidate: a tree computed under the
// policy of a generation that ended meanwhile is served to its caller but
// never cached.
func TestTreeToDropsTreeComputedAcrossInvalidate(t *testing.T) {
	topo := testTopo(t, 300)
	r := NewRouting(topo, DefaultTieBreak(1), 16)
	base, once := DefaultTieBreak(1), sync.Once{}
	r.SetTieBreak(func(chooser, candidate topology.ASN) uint64 {
		once.Do(r.Invalidate) // routing changes in the middle of the computation
		return base(chooser, candidate)
	})
	stale := r.TreeTo(5)
	if stale == nil || stale.Dst != 5 {
		t.Fatal("the caller was not served")
	}
	if r.TreeTo(5) == stale {
		t.Error("a tree from the ended generation was cached")
	}
}
