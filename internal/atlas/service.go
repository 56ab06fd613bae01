package atlas

import (
	"math/rand"

	"revtr/internal/alias"
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
	Pick  SitePicker
	Alias alias.Resolver
	// Size is the target number of traceroutes per source (the paper
	// settles on 1000 random RIPE Atlas probes per source daily).
	Size int

	rng *rand.Rand
}

// NewService creates an atlas service.
func NewService(p *measure.Prober, probes []*vantage.Probe, pick SitePicker, res alias.Resolver, size int, seed int64) *Service {
	return &Service{
		Prober: p, Probes: probes, Pick: pick, Alias: res, Size: size,
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
// refresh, so it also fixes the atlas's MedianHops.
func (s *Service) fill(a *Atlas, exclude map[string]bool) {
	defer a.setMedianHops()
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
		tr := s.Prober.Traceroute(probe.Agent, a.Source.Addr)
		if !tr.ReachedDst {
			continue
		}
		e := a.Add(probe.Agent.Name, int32(probe.Agent.AS), tr.HopAddrs(), s.Prober.Now())
		a.BuildRRAliases(s.Prober, s.Pick, s.Alias, e)
		inAtlas[probe.Agent.Name] = true
	}
}

// Refresh applies the daily replacement policy: entries that were useful
// since the last refresh are re-measured from the same probe; the rest
// are dropped and replaced with traceroutes from new random probes.
func (s *Service) Refresh(a *Atlas) {
	byName := map[string]*vantage.Probe{}
	for _, p := range s.Probes {
		byName[p.Agent.Name] = p
	}
	var keep []*Entry
	dropped := map[string]bool{}
	for _, e := range append([]*Entry(nil), a.Entries...) {
		if e.WasUseful() {
			keep = append(keep, e)
		} else {
			dropped[e.ProbeName] = true
			a.Remove(e)
		}
	}
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
