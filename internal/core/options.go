// Package core implements the Reverse Traceroute engine: the Fig 2
// control flow that measures the path from an arbitrary destination D back
// to a controlled source S by stitching together traceroute-atlas
// intersections, (spoofed) Record Route revelations, optional Timestamp
// adjacency tests, and restricted symmetry assumptions.
//
// The engine is parameterized so one codebase expresses both systems the
// paper compares (§5.2.1): revtr 1.0 (set-cover VP selection, Timestamp,
// unconditional symmetry assumptions) and revtr 2.0 (ingress-based VP
// selection, RR-atlas intersections, intradomain-only symmetry, caching),
// plus every intermediate configuration of Table 4's ablation.
package core

import (
	"revtr/internal/core/segments"
	"revtr/internal/ingress"
)

// SymmetryPolicy controls Q5: what to do when no technique finds the next
// reverse hop.
type SymmetryPolicy int

const (
	// SymAlways assumes the penultimate traceroute hop is on the reverse
	// path regardless of AS ownership (revtr 1.0).
	SymAlways SymmetryPolicy = iota
	// SymIntraOnly assumes symmetry only when the link is intradomain,
	// aborting otherwise (revtr 2.0; intradomain symmetry holds 90% of
	// the time vs 57% interdomain, Table 2).
	SymIntraOnly
	// SymNever aborts whenever a symmetry assumption would be needed.
	SymNever
)

// Bounds every configuration shares, beside the unexported cache cap,
// dead-VP TTL and Timestamp probes per hop.
const (
	// SpoofBatchSize is the number of spoofed VPs probed per round (3 in
	// revtr 2.0, §5.3).
	SpoofBatchSize = 3
	// SpoofTimeoutUS is the longest a spoofed batch waits (10 s, §5.2.4):
	// the replies land at the source, which knows what it asked for, so a
	// batch that holds them all is over at the last one and only a batch
	// that is missing a reply waits this out (Machine.spoofWait).
	SpoofTimeoutUS int64 = 10_000_000
	// CacheTTLUS is the measurement reuse window (one day, Insight 1.4).
	CacheTTLUS int64 = 24 * 3_600_000_000
	// MaxHops bounds the reverse path length.
	MaxHops = 40
)

// Options selects the engine configuration: what the paper's two systems
// and Table 4's ablation vary. Bounds every configuration shares are
// constants, not fields.
type Options struct {
	// VPSelection picks the spoofed-RR vantage point policy (Q3).
	VPSelection ingress.Selection
	// UseRRAtlas enables §4.2 RR-alias intersections with the traceroute
	// atlas (Q2). The atlas must have been built with RR aliases.
	UseRRAtlas bool
	// UseTimestamp enables the IP Timestamp adjacency technique (Q4).
	UseTimestamp bool
	// UseCache reuses RR and traceroute measurements for CacheTTLUS
	// across reverse traceroutes (Insight 1.4) — an RR stage that
	// revealed nothing included, so a hop that does not answer Record
	// Route is swept once a day per source, not once per measurement —
	// and, across sources, what a sweep settled about the hop alone:
	// the vantage points out of range of it, and that it stays silent.
	UseCache bool
	// Symmetry is the Q5 policy.
	Symmetry SymmetryPolicy

	// MaxSpoofVPs bounds the total vantage points tried per stuck hop.
	MaxSpoofVPs int
	// SegmentStore, when non-nil, enables Doubletree-style
	// cross-measurement memoization: before probing for the next reverse
	// hop the engine consults the store and splices a memoized suffix
	// (hops marked Spliced), and every completed measurement publishes
	// its freshly revealed segments back. The store is shared: pass the
	// same pointer to every engine of a process (campaign workers, the
	// service backend) so measurements feed each other. nil (the
	// default) disables memoization entirely — behavior is bit-identical
	// to a build without the feature.
	SegmentStore *segments.Store
	// ExcludeAtlasFromDstAS ignores atlas traceroutes measured from
	// probes in the destination's AS — the §5.2.1 evaluation rule that
	// keeps the system from trivially "measuring" a path by reading the
	// ground-truth traceroute.
	ExcludeAtlasFromDstAS bool
}

// Revtr20Options returns the revtr 2.0 configuration.
func Revtr20Options() Options {
	return Options{
		VPSelection:  ingress.SelIngress,
		UseRRAtlas:   true,
		UseTimestamp: false,
		UseCache:     true,
		Symmetry:     SymIntraOnly,
		MaxSpoofVPs:  12,
	}
}

// Revtr10Options returns the revtr 1.0 configuration (as reimplemented in
// §5.2.1: same vantage points and atlas, original algorithms).
func Revtr10Options() Options {
	o := Revtr20Options()
	o.VPSelection = ingress.SelSetCover
	o.UseRRAtlas = false
	o.UseTimestamp = true
	o.UseCache = false
	o.Symmetry = SymAlways
	// revtr 1.0 tried vantage points until one reached the destination.
	o.MaxSpoofVPs = 200
	return o
}

// Technique records how a reverse hop was measured.
type Technique uint8

const (
	// TechDestination marks the starting hop D.
	TechDestination Technique = iota
	// TechTrIntersect: adopted from an atlas traceroute intersection.
	TechTrIntersect
	// TechRR: revealed by a direct Record Route ping from the source.
	TechRR
	// TechSpoofRR: revealed by a spoofed Record Route ping.
	TechSpoofRR
	// TechTS: confirmed by an IP Timestamp adjacency test.
	TechTS
	// TechSymmetry: assumed from the penultimate forward-traceroute hop.
	TechSymmetry
	// TechSource marks the source S.
	TechSource
)

func (t Technique) String() string {
	switch t {
	case TechDestination:
		return "dst"
	case TechTrIntersect:
		return "tr-intersect"
	case TechRR:
		return "rr"
	case TechSpoofRR:
		return "spoof-rr"
	case TechTS:
		return "ts"
	case TechSymmetry:
		return "assume-sym"
	case TechSource:
		return "src"
	}
	return "?"
}

// Status is the outcome of a reverse traceroute.
type Status uint8

const (
	// StatusComplete: the path was measured back to the source.
	StatusComplete Status = iota
	// StatusAborted: measuring on would have required an interdomain
	// symmetry assumption (Insight 1.10) — revtr 2.0 returns nothing
	// rather than risk a wrong path.
	StatusAborted
	// StatusFailed: the destination was unresponsive or the engine ran
	// out of techniques/hops.
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusAborted:
		return "aborted"
	}
	return "failed"
}
