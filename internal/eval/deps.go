package eval

import (
	"fmt"
	"sync"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/topology"
)

// Deployments are expensive (topology generation + ingress survey), so
// experiments sharing a scale share one.
var (
	depMu    sync.Mutex
	depCache = map[string]*revtr.Deployment{}
)

func deployment(s Scale, vintage topology.Vintage) *revtr.Deployment {
	return cachedDeployment(s, vintage, false)
}

// deploymentNoSurvey builds a 2020 deployment without the ingress survey,
// for experiments that issue all probes themselves (Table 6, Fig 11).
func deploymentNoSurvey(s Scale) *revtr.Deployment {
	return cachedDeployment(s, topology.Vintage2020, true)
}

// deployment2016 builds the pre-flattening variant for Table 6 / Fig 11,
// which only issue their own probes.
func deployment2016(s Scale) *revtr.Deployment {
	return cachedDeployment(s, topology.Vintage2016, true)
}

// cachedDeployment builds, once per distinct input, the deployment of
// scale s at a vintage, with or without the ingress survey. The 2016
// vintage sits on the pre-flattening topology, with half the sites.
func cachedDeployment(s Scale, vintage topology.Vintage, skipSurvey bool) *revtr.Deployment {
	key := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%v", s.ASes, s.Sites, s.Probes, s.AtlasSize, s.Seed, vintage, skipSurvey)
	depMu.Lock()
	defer depMu.Unlock()
	if d, ok := depCache[key]; ok {
		return d
	}
	cfg := revtr.Config{
		Topology:     topology.Config{Seed: s.Seed, NumASes: s.ASes, Vintage: vintage},
		Sites:        s.Sites,
		Probes:       s.Probes,
		ProbeCredits: 1 << 30,
		AtlasSize:    s.AtlasSize,
		Seed:         s.Seed,
		SkipSurvey:   skipSurvey,
	}
	if vintage == topology.Vintage2016 {
		cfg.Sites = s.Sites / 2 // fewer sites existed in 2016
	}
	d := revtr.Build(cfg)
	depCache[key] = d
	return d
}

// sourcesFor registers the first n vantage point sites as Reverse
// Traceroute sources with atlases (the paper's sources are the M-Lab
// sites).
func sourcesFor(d *revtr.Deployment, n int) []core.Source {
	if n > len(d.SiteAgents) {
		n = len(d.SiteAgents)
	}
	out := make([]core.Source, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.SourceFromAgent(d.SiteAgents[i]))
	}
	return out
}

// probeDestinations returns probe hosts usable as reverse traceroute
// destinations (the §5.2.1 workload measures from RIPE Atlas probes to
// M-Lab; the probes "are all configured to respond to record route").
func probeDestinations(d *revtr.Deployment) []measure.Agent {
	var out []measure.Agent
	for _, p := range d.Probes {
		out = append(out, p.Agent)
	}
	return out
}
