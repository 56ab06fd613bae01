// Package detrand is the shared seeded-source pattern for the
// simulation: every consumer of pseudo-randomness derives a named
// stream from the deployment seed instead of ad-hoc `seed + k` offsets
// or (worse) the global math/rand source. A stream is a pure function
// of (seed, name), so adding a new consumer never perturbs existing
// streams the way renumbering additive offsets does, and two consumers
// can never collide unless they share a name on purpose.
//
// The detpath analyzer forbids global math/rand draws in deterministic
// packages; this package is the sanctioned replacement.
package detrand

import (
	"hash/fnv"
	"math/rand"
)

// New returns a rand.Rand whose seed is a pure function of the
// deployment seed and the stream name.
func New(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(Seed(seed, stream)))
}

// Seed derives the stream's seed value (exposed for consumers that feed
// other PRNG shapes, e.g. a fault plan's uint64 seed).
func Seed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return int64(Mix64(uint64(seed) ^ h.Sum64()))
}

// Mix64 is the splitmix64 finalizer every deterministic hash in the
// simulation is built on (fabric and BGP tie-breakers, fault draws,
// probe keys, stream seeds).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix hashes the pair (a, b): b spread by the golden-ratio increment,
// folded into a, then finalized.
func Mix(a, b uint64) uint64 { return Mix64(a ^ b*0x9e3779b97f4a7c15) }
