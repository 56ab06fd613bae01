package ttlcache

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

func intLess(a, b int) bool { return a < b }

// keys lists what the cache holds, without Get's expire-on-read.
func keys(c *Cache[int, string]) []int { return slices.Sorted(maps.Keys(c.m)) }

// TestGetExpiry pins the boundary: an entry is served while now-at <=
// ttl and deleted by the first lookup past it. A zero TTL serves only
// at the write instant; a negative one never serves.
func TestGetExpiry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ttl     int64
		at, now int64
		hit     bool
	}{
		{"fresh", 1000, 0, 10, true},
		{"at ttl", 1000, 0, 1000, true},
		{"ttl+1", 1000, 0, 1001, false},
		{"offset clock at ttl", 1000, 500, 1500, true},
		{"offset clock ttl+1", 1000, 500, 1501, false},
		{"zero ttl same instant", 0, 7, 7, true},
		{"zero ttl next instant", 0, 7, 8, false},
		{"negative ttl same instant", -1, 7, 7, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, string](tc.ttl, 0, nil)
			c.Put(1, "v", tc.at)
			v, ok, expired := c.Get(1, tc.now)
			if ok != tc.hit {
				t.Fatalf("Get ok = %v, want %v", ok, tc.hit)
			}
			if tc.hit {
				if v != "v" || expired != 0 || c.Len() != 1 {
					t.Fatalf("hit returned v=%q expired=%d Len=%d", v, expired, c.Len())
				}
				return
			}
			if v != "" || expired != 1 || c.Len() != 0 {
				t.Fatalf("expired lookup returned v=%q expired=%d Len=%d, want the entry deleted and counted once", v, expired, c.Len())
			}
			if _, ok, expired := c.Get(1, tc.now); ok || expired != 0 {
				t.Fatalf("second lookup ok=%v expired=%d, want a plain miss", ok, expired)
			}
		})
	}
	c := New[int, string](1000, 0, nil)
	if _, ok, expired := c.Get(1, 0); ok || expired != 0 {
		t.Fatalf("lookup of an absent key ok=%v expired=%d", ok, expired)
	}
}

// TestPutRefreshes: rewriting a key restarts its TTL and does not grow
// the cache.
func TestPutRefreshes(t *testing.T) {
	c := New[int, string](1000, 0, nil)
	c.Put(1, "old", 0)
	c.Put(1, "new", 900)
	if v, ok, _ := c.Get(1, 1800); !ok || v != "new" || c.Len() != 1 {
		t.Fatalf("Get = %q, %v (Len %d), want the refreshed entry", v, ok, c.Len())
	}
}

// TestSweepInterval: MaybeSweep is a no-op until the SweepEvery-th
// write, then drops exactly the expired entries and starts the interval
// over. Flush also restarts it.
func TestSweepInterval(t *testing.T) {
	c := New[int, string](1000, 0, nil)
	for i := 0; i < SweepEvery-1; i++ {
		c.Put(i, "", 0)
		if expired, capped := c.MaybeSweep(10_000); expired != 0 || capped != 0 {
			t.Fatalf("swept on write %d (expired=%d capped=%d), want nothing before write %d", i+1, expired, capped, SweepEvery)
		}
	}
	c.Put(-1, "", 10_000)
	if expired, capped := c.MaybeSweep(10_000); expired != SweepEvery-1 || capped != 0 {
		t.Fatalf("write %d swept expired=%d capped=%d, want %d, 0", SweepEvery, expired, capped, SweepEvery-1)
	}
	if got := keys(c); !slices.Equal(got, []int{-1}) {
		t.Fatalf("sweep left %v, want only the fresh entry", got)
	}
	c.Put(-2, "", 0)
	if expired, _ := c.MaybeSweep(10_000); expired != 0 {
		t.Fatal("the write counter did not restart after a sweep")
	}

	// One write short of the interval, then Flush: the next write must
	// not complete the old interval.
	c = New[int, string](1000, 0, nil)
	for i := 0; i < SweepEvery-1; i++ {
		c.Put(i, "", 0)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Flush", c.Len())
	}
	c.Put(1, "", 0)
	if expired, _ := c.MaybeSweep(10_000); expired != 0 || c.Len() != 1 {
		t.Fatalf("Flush kept the write counter: expired=%d Len=%d", expired, c.Len())
	}
}

// TestCapEviction: going over the cap sweeps at once, whatever the
// write count. Expired entries go first and are counted apart; then the
// oldest go, by (age, key order), until exactly the cap remains — for
// any insertion order.
func TestCapEviction(t *testing.T) {
	type put struct {
		k  int
		at int64
	}
	for _, tc := range []struct {
		name            string
		ttl             int64
		cap             int
		puts            []put
		now             int64
		expired, capped int
		left            []int
	}{
		{"at cap: nothing", 1 << 40, 3, []put{{1, 0}, {2, 1}, {3, 2}}, 5, 0, 0, []int{1, 2, 3}},
		{"one over: the oldest goes", 1 << 40, 3, []put{{1, 5}, {2, 0}, {3, 7}, {4, 6}}, 9, 0, 1, []int{1, 3, 4}},
		{"far over: exactly to the cap", 1 << 40, 2, []put{{1, 4}, {2, 3}, {3, 2}, {4, 1}, {5, 0}, {6, 5}}, 9, 0, 4, []int{1, 6}},
		{"equal ages: smallest keys go", 1 << 40, 2, []put{{30, 5}, {10, 5}, {40, 5}, {20, 5}}, 9, 0, 2, []int{30, 40}},
		{"age before key", 1 << 40, 2, []put{{1, 5}, {2, 5}, {9, 4}}, 9, 0, 1, []int{1, 2}},
		{"expiry alone gets under the cap", 10, 2, []put{{1, 0}, {2, 0}, {3, 20}}, 20, 2, 0, []int{3}},
		{"expiry then cap", 10, 2, []put{{1, 0}, {2, 15}, {3, 16}, {4, 17}}, 20, 1, 1, []int{3, 4}},
		{"no cap: never evicts", 1 << 40, 0, []put{{1, 0}, {2, 0}, {3, 0}}, 9, 0, 0, []int{1, 2, 3}},
		{"negative cap: never evicts", 1 << 40, -4, []put{{1, 0}, {2, 0}, {3, 0}}, 9, 0, 0, []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 20; round++ {
				puts := append([]put(nil), tc.puts...)
				rng.Shuffle(len(puts), func(i, j int) { puts[i], puts[j] = puts[j], puts[i] })
				c := New[int, string](tc.ttl, tc.cap, intLess)
				for _, p := range puts {
					c.Put(p.k, "", p.at)
				}
				expired, capped := c.MaybeSweep(tc.now)
				if expired != tc.expired || capped != tc.capped {
					t.Fatalf("order %v: expired=%d capped=%d, want %d, %d", puts, expired, capped, tc.expired, tc.capped)
				}
				if got := keys(c); !slices.Equal(got, tc.left) {
					t.Fatalf("order %v: left %v, want %v", puts, got, tc.left)
				}
			}
		})
	}
}

// TestCloneIsIndependent: a clone carries the configuration, contents
// and sweep position, and shares no storage with the original.
func TestCloneIsIndependent(t *testing.T) {
	c := New[int, string](100, 2, intLess)
	c.Put(1, "a", 0)
	c.Put(2, "b", 1)
	cp := c.Clone()

	c.Flush()
	c.Put(9, "z", 0)
	if got := keys(cp); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("clone holds %v after the original changed, want [1 2]", got)
	}
	cp.Put(3, "c", 2)
	if got := keys(c); !slices.Equal(got, []int{9}) {
		t.Fatalf("original holds %v after the clone changed, want [9]", got)
	}
	// Same cap and key order: the third entry evicts the oldest.
	if _, capped := cp.MaybeSweep(2); capped != 1 || !slices.Equal(keys(cp), []int{2, 3}) {
		t.Fatalf("clone capped=%d left %v, want 1, [2 3]", capped, keys(cp))
	}
	// Same TTL.
	if _, ok, _ := cp.Get(2, 101); !ok {
		t.Fatal("clone expired an entry at its TTL")
	}
	if _, ok, _ := cp.Get(2, 102); ok {
		t.Fatal("clone served an entry past the original's TTL")
	}

	// Same sweep position: one more write completes the interval in both.
	c = New[int, string](100, 0, nil)
	for i := 0; i < SweepEvery-1; i++ {
		c.Put(i, "", 0)
	}
	cp = c.Clone()
	cp.Put(-1, "", 1000)
	if expired, _ := cp.MaybeSweep(1000); expired != SweepEvery-1 {
		t.Fatalf("clone swept %d entries on its first write, want %d", expired, SweepEvery-1)
	}
	if c.Len() != SweepEvery-1 {
		t.Fatalf("the clone's sweep reached the original: Len = %d", c.Len())
	}
}
