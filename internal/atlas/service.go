package atlas

import (
	"math/rand"

	"revtr/internal/alias"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/vantage"
)

// Service builds and maintains atlases: random probe selection (Insight
// 1.5), daily refresh with the Random++ replacement policy (keep
// traceroutes that proved useful, replace the rest — Appx D.2.1), and the
// background RR-alias measurements.
type Service struct {
	Prober *measure.Prober
	Probes []*vantage.Probe
	// Pick selects spoofing sites for background RR probes (§4.3
	// ingress-based when wired by the deployment).
	Pick   SitePicker
	Alias  alias.Resolver
	Mapper ip2as.Mapper // maps hops to ASes for ASHops, as the engine does
	// Size is the target number of traceroutes per source (the paper
	// settles on 1000 random RIPE Atlas probes per source daily).
	Size int

	rng *rand.Rand
}

// NewService creates an atlas service.
func NewService(p *measure.Prober, probes []*vantage.Probe, pick SitePicker, res alias.Resolver, m ip2as.Mapper, size int, seed int64) *Service {
	return &Service{
		Prober: p, Probes: probes, Pick: pick, Alias: res, Mapper: m, Size: size,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// BuildFor constructs a fresh atlas for source from Size randomly-chosen
// probes.
func (s *Service) BuildFor(source measure.Agent) *Atlas {
	a := New(source)
	s.fill(a, nil)
	return a
}

// fill tops the atlas up to Size traceroutes from random probes not in
// exclude (probe names). It is the last step of a build and of a
// refresh, so it also fixes MedianHops and ASHops. Each traceroute
// stops at the first hop the atlas already holds (Doubletree's stop set,
// keyed by hop: every entry ends at the same source), and the entry
// adopts the rest of the path from the entry that holds that hop.
func (s *Service) fill(a *Atlas, exclude map[string]bool) {
	defer a.summarize(s.Mapper)
	inAtlas := map[string]bool{}
	for _, e := range a.Entries {
		inAtlas[e.ProbeName] = true
	}
	order := s.rng.Perm(len(s.Probes))
	for _, pi := range order {
		if a.Size() >= s.Size {
			return
		}
		probe := s.Probes[pi]
		if inAtlas[probe.Agent.Name] || (exclude != nil && exclude[probe.Agent.Name]) {
			continue
		}
		if !probe.Spend(1) {
			continue // rate limited
		}
		tr := s.Prober.TracerouteUntil(probe.Agent, a.Source.Addr, a.holds)
		hops := tr.HopAddrs()
		if tr.Stopped {
			hops = a.adopt(hops)
		} else if !tr.ReachedDst {
			continue
		}
		e := a.Add(probe.Agent.Name, int32(probe.Agent.AS), hops, s.Prober.Now())
		a.BuildRRAliases(s.Prober, s.Pick, s.Alias, e)
		inAtlas[probe.Agent.Name] = true
	}
}

// Refresh applies the daily replacement policy: entries that were useful
// since the last refresh are re-measured from the same probe (a full
// traceroute: the stop set holds the entry itself); the rest are dropped
// and replaced with traceroutes from new random probes, whose stop set
// holds only the kept entries.
func (s *Service) Refresh(a *Atlas) {
	byName := map[string]*vantage.Probe{}
	for _, p := range s.Probes {
		byName[p.Agent.Name] = p
	}
	var keep, drop []*Entry
	dropped := map[string]bool{}
	for _, e := range a.Entries {
		if e.WasUseful() {
			keep = append(keep, e)
		} else {
			drop = append(drop, e)
			dropped[e.ProbeName] = true
		}
	}
	a.Remove(drop...)
	// Re-measure kept traceroutes so the atlas stays fresh.
	for _, e := range keep {
		probe, ok := byName[e.ProbeName]
		if !ok || !probe.Spend(1) {
			continue
		}
		tr := s.Prober.Traceroute(probe.Agent, a.Source.Addr)
		if !tr.ReachedDst {
			a.Remove(e)
			dropped[e.ProbeName] = true
			continue
		}
		a.Remove(e)
		ne := a.Add(e.ProbeName, e.ProbeAS, tr.HopAddrs(), s.Prober.Now())
		a.BuildRRAliases(s.Prober, s.Pick, s.Alias, ne)
	}
	s.fill(a, dropped)
	a.ResetUseful()
}
