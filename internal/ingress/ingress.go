// Package ingress implements revtr 2.0's Record Route vantage point
// selection (Q3, §4.3): weekly RR surveys from every site to destinations
// in every BGP prefix, ingress-candidate identification (including the
// Appendix C double-stamp and loop heuristics for destinations that do
// not stamp), greedy set-cover selection of ingresses, and the ordered
// per-prefix VP plans the engine probes in batches of three.
//
// It also implements the two baselines of §5.3: the revtr 1.0 per-corpus
// set-cover ranking and the Global greedy ranking.
package ingress

import (
	"math/rand"
	"sort"

	"revtr/internal/detrand"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
)

// InRangeHops is the maximum RR distance at which a vantage point can
// still reveal reverse hops: the destination must be reached with at
// least one of the nine slots free.
const InRangeHops = 8

// SiteObs is what one site's survey probes revealed about one prefix.
type SiteObs struct {
	Site int
	// Reached reports whether either destination replied to RR.
	Reached bool
	// Dist is the number of RR slots consumed reaching the prefix
	// (1-based marker position), or -1 if unknown.
	Dist int
	// Cands are the ingress candidates: addresses on both destinations'
	// paths up to and including the first in-prefix marker.
	Cands []ipv4.Addr
	// CandIdx gives each candidate's position on this site's path.
	CandIdx map[ipv4.Addr]int
}

// Ingress is a selected ingress with the sites that traverse it.
type Ingress struct {
	Addr ipv4.Addr
	// Sites traversing this ingress, ordered closest-first (by the
	// candidate's position on each site's RR path).
	Sites []int
}

// PrefixInfo is the per-prefix product of the survey.
type PrefixInfo struct {
	Prefix    ipv4.Prefix
	Obs       []*SiteObs
	Ingresses []Ingress // ordered by number of sites covered, descending
	// InRange lists sites within InRangeHops, closest first (the
	// fallback plan when no ingress was identified).
	InRange []int
	order   []int // the SelIngress plan, built once; PlanFor hands it out
}

// Heuristics toggles the Appendix C candidate-extraction heuristics, for
// the Table 5 ablation.
type Heuristics struct {
	DoubleStamp bool
	Loop        bool
}

// AllHeuristics is the full revtr 2.0 configuration.
var AllHeuristics = Heuristics{DoubleStamp: true, Loop: true}

// Service runs surveys and answers VP-selection queries.
type Service struct {
	Prober *measure.Prober
	Sites  []measure.Agent
	Heur   Heuristics

	Info map[ipv4.Prefix]*PrefixInfo

	// rank10 is the revtr 1.0 greedy set-cover site order; rankGlobal
	// orders sites by raw in-range prefix count.
	rank10     []int
	rankGlobal []int
	heard      map[ipv4.Addr]bool // per survey destination: did any site's RR ping draw a reply

	seed int64
	rng  *rand.Rand // the ingress tie-break stream, restarted by every survey
}

// NewService creates the service.
func NewService(p *measure.Prober, sites []measure.Agent, heur Heuristics, seed int64) *Service {
	return &Service{
		Prober: p,
		Sites:  sites,
		Heur:   heur,
		seed:   seed,
	}
}

// Survey probes each prefix from every site. dests must yield at least
// two (ideally responsive) destination addresses per prefix; the first
// two are used for candidate extraction. It replaces all an earlier survey
// found: the service answers as a fresh one that ran only this survey.
func (s *Service) Survey(prefixes []ipv4.Prefix, dests func(ipv4.Prefix) []ipv4.Addr) {
	s.Info = make(map[ipv4.Prefix]*PrefixInfo)
	s.heard = make(map[ipv4.Addr]bool)
	s.rng = detrand.New(s.seed, "ingress.tiebreak")
	for _, pfx := range prefixes {
		ds := dests(pfx)
		if len(ds) == 0 {
			continue
		}
		s.Info[pfx] = s.surveyPrefix(pfx, ds)
	}
	s.computeRankings()
}

// Silent reports whether addr was a destination of the last survey that no
// site's RR ping drew a reply from: no option packet from any direction.
func (s *Service) Silent(addr ipv4.Addr) bool {
	heard, surveyed := s.heard[addr]
	return surveyed && !heard
}

// Heard reports whether addr was a destination of the last survey that a
// site's RR ping drew a reply from: it answers option packets.
func (s *Service) Heard(addr ipv4.Addr) bool { return s.heard[addr] }

func (s *Service) surveyPrefix(pfx ipv4.Prefix, ds []ipv4.Addr) *PrefixInfo {
	info := &PrefixInfo{Prefix: pfx}
	d1 := ds[0]
	d2 := d1
	if len(ds) > 1 {
		d2 = ds[1]
	}
	heard1, heard2 := false, false
	for si := range s.Sites {
		obs := &SiteObs{Site: si, Dist: -1, CandIdx: make(map[ipv4.Addr]int)}
		rr1 := s.Prober.RRPing(s.Sites[si], d1)
		heard1 = heard1 || rr1.Responded
		c1, m1 := s.extractCandidates(pfx, rr1.Recorded)
		var c2 []ipv4.Addr
		m2 := -1
		if d2 != d1 {
			rr2 := s.Prober.RRPing(s.Sites[si], d2)
			heard2 = heard2 || rr2.Responded
			c2, m2 = s.extractCandidates(pfx, rr2.Recorded)
			obs.Reached = rr1.Responded || rr2.Responded
		} else {
			c2, m2 = c1, m1
			obs.Reached = rr1.Responded
		}
		if m1 >= 0 {
			obs.Dist = m1 + 1
		} else if m2 >= 0 {
			obs.Dist = m2 + 1
		}
		// Candidates must appear on both paths (guard against hops past
		// the real ingress, §4.3).
		onC2 := map[ipv4.Addr]bool{}
		for _, a := range c2 {
			onC2[a] = true
		}
		for i, a := range c1 {
			if onC2[a] {
				obs.Cands = append(obs.Cands, a)
				obs.CandIdx[a] = i
			}
		}
		info.Obs = append(info.Obs, obs)
	}
	s.heard[d2] = heard2
	s.heard[d1] = heard1 // last: d1 may be d2
	s.selectIngresses(info)
	return info
}

// extractCandidates returns the ingress candidates of one recorded RR
// path — the addresses up to and including the first in-prefix marker —
// and the marker index (-1 if none found even with heuristics).
func (s *Service) extractCandidates(pfx ipv4.Prefix, rec []ipv4.Addr) ([]ipv4.Addr, int) {
	if len(rec) == 0 {
		return nil, -1
	}
	// Primary rule: first address inside the destination prefix.
	for i, a := range rec {
		if pfx.Contains(a) {
			return rec[:i+1], i
		}
	}
	if s.Heur.DoubleStamp {
		// The same address in two adjacent slots without the prefix
		// appearing: the destination's alias or the penultimate hop on
		// both directions (Appx C).
		for i := 0; i+1 < len(rec); i++ {
			if rec[i] == rec[i+1] {
				return rec[:i+1], i
			}
		}
	}
	if s.Heur.Loop {
		// A loop a‑S‑a means the probe reached the destination and came
		// back through a; every address through the second occurrence is
		// a candidate (Appx C).
		first := map[ipv4.Addr]int{}
		for i, a := range rec {
			if j, seen := first[a]; seen && i > j+1 {
				return rec[:i+1], j
			}
			if _, seen := first[a]; !seen {
				first[a] = i
			}
		}
	}
	return nil, -1
}

// selectIngresses runs the greedy set cover over candidates (§4.3) and
// builds the ordered ingress list, the in-range fallback and the plan.
func (s *Service) selectIngresses(info *PrefixInfo) {
	covered := make([]bool, len(s.Sites))
	sitesOf := map[ipv4.Addr][]int{}
	for _, obs := range info.Obs {
		for _, c := range obs.Cands {
			sitesOf[c] = append(sitesOf[c], obs.Site)
		}
	}
	for {
		var best ipv4.Addr
		bestGain := 0
		var tied []ipv4.Addr
		//revtr:unordered every max-gain candidate lands in tied, which is sorted before the seeded pick below
		for cand, sites := range sitesOf {
			gain := 0
			for _, si := range sites {
				if !covered[si] {
					gain++
				}
			}
			switch {
			case gain > bestGain:
				bestGain = gain
				best = cand
				tied = tied[:0]
				tied = append(tied, cand)
			case gain == bestGain && gain > 0:
				tied = append(tied, cand)
			}
		}
		if bestGain == 0 {
			break
		}
		if len(tied) > 1 {
			// "If multiple ingresses are tied ... choose one at random."
			sort.Slice(tied, func(i, j int) bool { return tied[i] < tied[j] })
			best = tied[s.rng.Intn(len(tied))]
		}
		ing := Ingress{Addr: best}
		for _, si := range sitesOf[best] {
			if !covered[si] {
				covered[si] = true
				ing.Sites = append(ing.Sites, si)
			}
		}
		// Closest site to the ingress first.
		obsOf := info.Obs
		sort.SliceStable(ing.Sites, func(i, j int) bool {
			return obsOf[ing.Sites[i]].CandIdx[best] < obsOf[ing.Sites[j]].CandIdx[best]
		})
		info.Ingresses = append(info.Ingresses, ing)
		delete(sitesOf, best)
	}
	sort.SliceStable(info.Ingresses, func(i, j int) bool {
		return len(info.Ingresses[i].Sites) > len(info.Ingresses[j].Sites)
	})
	// Fallback: sites in RR range ordered by distance.
	type sd struct{ site, dist int }
	var in []sd
	for _, obs := range info.Obs {
		if obs.Dist > 0 && obs.Dist <= InRangeHops {
			in = append(in, sd{obs.Site, obs.Dist})
		}
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].dist != in[j].dist {
			return in[i].dist < in[j].dist
		}
		return in[i].site < in[j].site
	})
	for _, x := range in {
		info.InRange = append(info.InRange, x.site)
	}
	// The SelIngress plan: one probe per ingress from the closest vantage
	// point; fallback VPs for an ingress come only after every other
	// ingress's primary has been tried (retrying the same ingress with
	// another VP rarely reveals anything new — §4.3's ordering). A site
	// the survey saw past InRangeHops is left out: its spoofed ping comes
	// back full before the reverse path begins. Within a depth, the
	// nearest site goes first.
	seen := map[int]bool{}
	for depth := 0; depth < MaxFallbacksPerIngress; depth++ {
		added, level := false, len(info.order)
		for _, ing := range info.Ingresses {
			if depth >= len(ing.Sites) {
				continue
			}
			si := ing.Sites[depth]
			if seen[si] {
				continue
			}
			seen[si] = true
			added = true
			if info.Obs[si].Dist <= InRangeHops {
				info.order = append(info.order, si)
			}
		}
		if !added {
			break
		}
		lv := info.order[level:]
		sort.SliceStable(lv, func(i, j int) bool { return info.Obs[lv[i]].Dist < info.Obs[lv[j]].Dist })
	}
}

// computeRankings derives the revtr 1.0 set-cover order and the Global
// order from the survey.
func (s *Service) computeRankings() {
	inRange := make([]map[ipv4.Prefix]bool, len(s.Sites))
	for i := range inRange {
		inRange[i] = make(map[ipv4.Prefix]bool)
	}
	for pfx, info := range s.Info {
		for _, obs := range info.Obs {
			if obs.Dist > 0 && obs.Dist <= InRangeHops {
				inRange[obs.Site][pfx] = true
			}
		}
	}
	// Global: raw coverage count, descending.
	s.rankGlobal = make([]int, len(s.Sites))
	for i := range s.rankGlobal {
		s.rankGlobal[i] = i
	}
	sort.SliceStable(s.rankGlobal, func(a, b int) bool {
		return len(inRange[s.rankGlobal[a]]) > len(inRange[s.rankGlobal[b]])
	})
	// revtr 1.0: greedy set cover of prefixes by sites.
	covered := map[ipv4.Prefix]bool{}
	used := make([]bool, len(s.Sites))
	s.rank10 = nil // a fresh slice: PlanFor handed the last one out
	for len(s.rank10) < len(s.Sites) {
		best, bestGain := -1, -1
		for si := range s.Sites {
			if used[si] {
				continue
			}
			gain := 0
			for pfx := range inRange[si] {
				if !covered[pfx] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		s.rank10 = append(s.rank10, best)
		for pfx := range inRange[best] {
			covered[pfx] = true
		}
	}
}

// Plan is an ordered sequence of site indices to try for a destination
// prefix, grouped for batching.
type Plan struct {
	// Order lists site indices, most promising first.
	Order []int
	// PerIngress is true when the order came from ingress identification
	// (one site per ingress, then fallbacks).
	PerIngress bool
	// Info is the survey of the prefix, whichever policy ordered the
	// sites; nil if it was never surveyed.
	Info *PrefixInfo
}

// Selection names a VP-selection policy.
type Selection int

const (
	// SelIngress is revtr 2.0's ingress-based selection.
	SelIngress Selection = iota
	// SelSetCover is revtr 1.0's greedy set-cover ranking.
	SelSetCover
	// SelGlobal ranks sites by raw in-range prefix count.
	SelGlobal
)

// MaxFallbacksPerIngress is how many sites per ingress a plan includes
// ("if five vantage points in a row fail to uncover the ingress, give
// up", §4.3).
const MaxFallbacksPerIngress = 5

// PlanFor returns the VP ordering for a destination prefix under the
// given policy. The order is the service's own slice, computed when the
// prefix was surveyed: read it, do not write it.
func (s *Service) PlanFor(pfx ipv4.Prefix, sel Selection) Plan {
	info := s.Info[pfx]
	switch sel {
	case SelSetCover:
		return Plan{Order: s.rank10, Info: info}
	case SelGlobal:
		return Plan{Order: s.rankGlobal, Info: info}
	}
	if info == nil {
		// Never surveyed: fall back to the global ranking.
		return Plan{Order: s.rankGlobal}
	}
	if len(info.Ingresses) == 0 {
		// 2.3% of prefixes: rank in-range sites by distance (§4.3). If
		// the survey found no site in RR range at all, spoofing is
		// hopeless — return an empty plan so the engine moves straight
		// to the symmetry step instead of wasting 10-second batches.
		return Plan{Order: info.InRange, Info: info}
	}
	return Plan{Order: info.order, PerIngress: true, Info: info}
}
