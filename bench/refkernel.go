package main

import (
	"slices"
	"strconv"
)

// The sandbox this benchmark runs on is a shared VM whose speed moves by
// a quarter for minutes at a time (README, "Steadiness"). refKernel is a
// fixed piece of work that belongs to the benchmark, not to the system
// under test — a dependent-load chase, map traffic, a sort and number
// formatting, the same kinds of work the server does, over a few
// megabytes. Timed before and after every day and every set-up, it says
// how fast the box was just then; the wall-clock metrics are reported at
// the box's nominal speed by scaling each day with its own index. It
// must never change: a different kernel is a different benchmark.
//
// The kernel allocates nothing and holds no pointers, so what the system
// under test leaves behind for the collector — garbage, an open GC cycle
// with its write barriers — cannot slow it: a change that adds GC work
// is not credited as a slow box.

// refNominalNS is what refKernel takes on the 2-core sandbox in a quiet
// phase; a speed index of 1 means "as fast as that". It only fixes the
// scale the three timing metrics are reported on.
const refNominalNS = 9.9e6

// speedIndex turns a refKernel time into the box's speed relative to
// nominal: below 1, the box was slow.
func speedIndex(refNS int64) float64 { return refNominalNS / float64(max(refNS, 1)) }

type refNode struct {
	next uint32
	key  uint32
	pad  [6]uint32
}

const refNodes = 1 << 16

// The kernel's working set, allocated on first use.
var ref struct {
	nodes []refNode
	perm  []uint32
	keys  []uint64
	m     map[uint32]uint32
	buf   []byte
	sink  uint64
}

// refKernel does the fixed reference work once: link the nodes into a
// seeded random cycle, chase it four times round while feeding a map
// and a key list, sort the keys, and format every one of them.
func refKernel() {
	const n = refNodes
	if ref.nodes == nil {
		ref.nodes, ref.perm = make([]refNode, n), make([]uint32, n)
		ref.keys, ref.m = make([]uint64, 0, n/4), make(map[uint32]uint32, n/4)
		ref.buf = make([]byte, 0, 32)
		// Fill the map to its final size once, so that no later run grows it.
		for k := uint32(0); k < n/4; k++ {
			ref.m[k] = 0
		}
	}
	x := uint32(2463534242)
	rnd := func() uint32 { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	nodes, perm := ref.nodes, ref.perm
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rnd() % uint32(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		nodes[perm[i]].next = perm[(i+1)%n]
		nodes[perm[i]].key = rnd()
	}
	clear(ref.m)
	keys := ref.keys[:0]
	at := uint32(0)
	for i := 0; i < 4*n; i++ {
		at = nodes[at].next
		if i%16 == 0 {
			key := nodes[at].key
			ref.m[key%(n/4)] += key
			keys = append(keys, uint64(key)<<8|uint64(i&0xff))
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		ref.sink += uint64(len(strconv.AppendUint(ref.buf[:0], k, 10)))
	}
	ref.sink += uint64(at) + keys[0] + uint64(len(ref.m))
}

// timeRef runs the kernel once and returns how long it took, in ns.
func timeRef() int64 {
	start := now()
	refKernel()
	return sinceNS(start)
}
