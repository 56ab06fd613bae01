// Package revtr is a from-scratch reproduction of "Internet Scale Reverse
// Traceroute" (Vermeulen et al., IMC 2022): the revtr 2.0 system, the
// revtr 1.0 baseline it is evaluated against, and the simulated Internet
// both run over.
//
// A Deployment bundles everything the real service operates: a generated
// Internet topology with BGP routing and a wire-format data plane,
// M-Lab-style spoofing vantage points, RIPE-Atlas-style probes, alias and
// IP-to-AS datasets, the background services (traceroute atlas with
// RR-alias probing, ingress surveys), and the Reverse Traceroute engine.
//
//	dep := revtr.Build(revtr.DefaultConfig(500))
//	src := dep.NewSource(dep.PickSourceHost(0))
//	eng := dep.Engine(core.Revtr20Options())
//	res := eng.MeasureReverse(context.Background(), src, dst)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
package revtr

import (
	"fmt"
	"math/rand"

	"revtr/internal/alias"
	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/ingress"
	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
	"revtr/internal/vantage"
)

// Config sizes a deployment.
type Config struct {
	// Topology generates the simulated Internet.
	Topology topology.Config
	// Sites is the number of spoofing vantage point sites (146 M-Lab
	// sites in the paper's deployment).
	Sites int
	// Vintage controls site placement (2020 colos vs 2016 edges).
	Vintage vantage.Vintage
	// Probes is the number of RIPE-Atlas-style probes; ProbeCredits the
	// per-probe traceroute budget.
	Probes       int
	ProbeCredits int
	// AtlasSize is the number of traceroutes per source's atlas (1000 in
	// the paper).
	AtlasSize int
	// SkipSurvey skips the ingress survey (callers that never issue
	// spoofed RR probes, or that run their own survey).
	SkipSurvey bool
	Seed       int64
}

// DefaultConfig returns a deployment sized for n ASes.
func DefaultConfig(n int) Config {
	return Config{
		Topology:     topology.DefaultConfig(n),
		Sites:        clamp(n/20, 8, 146),
		Vintage:      vantage.Vintage2020,
		Probes:       clamp(n/2, 20, 10000),
		ProbeCredits: 100000,
		AtlasSize:    clamp(n/6, 10, 1000),
		Seed:         1,
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Deployment is a fully-assembled simulated Reverse Traceroute system.
type Deployment struct {
	Cfg     Config
	Topo    *topology.Topology
	Routing *bgp.Routing
	Fabric  *fabric.Fabric
	// Clock is the deployment-wide virtual clock, shared by the serial
	// Prober (background services, eval) and the concurrent Pool.
	Clock *measure.Clock
	// Prober issues probes serially — background services and eval code.
	Prober *measure.Prober
	// Pool executes measurement probe batches concurrently; every engine
	// built from this deployment shares it.
	Pool *probe.Pool

	Sites      []vantage.Site
	SiteAgents []measure.Agent
	Probes     []*vantage.Probe

	Alias       *alias.Combined
	Mapper      ip2as.Mapper // the production (imperfect) mapper
	TruthMapper ip2as.Truth  // ground truth, for evaluation only

	AtlasSvc   *atlas.Service
	IngressSvc *ingress.Service

	rng *rand.Rand
}

// treeCacheBytes is the memory Build lets cached BGP routing trees take.
const treeCacheBytes = 8 << 20

// aliasCoverage is the fraction of routers the MIDAR-like dataset
// resolves (the alias ablation varies it on its own datasets).
const aliasCoverage = 0.35

// Build generates the topology and assembles every subsystem. With
// cfg.SkipSurvey false this includes the ingress survey over all routed
// prefixes — the dominant setup cost.
func Build(cfg Config) *Deployment {
	topo := topology.Generate(cfg.Topology)
	// Every AS's routing tree (6 bytes per AS) stays cached when they fit
	// treeCacheBytes — 6 MB at 1000 ASes; a larger world keeps the recent.
	nAS := len(topo.ASes)
	routing := bgp.NewRouting(topo, bgp.DefaultTieBreak(cfg.Seed), min(nAS, treeCacheBytes/(6*max(nAS, 1))))
	fab := fabric.New(topo, routing, cfg.Seed)
	clock := measure.NewClock()
	prober := measure.NewProberWithClock(fab, clock)
	pool := probe.New(fab, clock, 0) // GOMAXPROCS probe batches in flight

	sites := vantage.PlaceSites(topo, cfg.Sites, cfg.Vintage, cfg.Seed)
	agents := make([]measure.Agent, len(sites))
	for i, s := range sites {
		agents[i] = s.Agent
	}
	probes := vantage.PlaceProbes(topo, cfg.Probes, cfg.ProbeCredits, cfg.Seed)

	res := &alias.Combined{
		Midar: alias.NewMidar(topo, aliasCoverage, cfg.Seed),
		SNMP:  alias.NewSNMP(topo, alias.SNMPConfig{}, cfg.Seed),
	}

	d := &Deployment{
		Cfg:        cfg,
		Topo:       topo,
		Routing:    routing,
		Fabric:     fab,
		Clock:      clock,
		Prober:     prober,
		Pool:       pool,
		Sites:      sites,
		SiteAgents: agents,
		Probes:     probes,
		Alias:      res,
		// The production mapper models Arnold et al.'s method (EuroIX >
		// PeeringDB > RouteViews > Whois, Appx B.2): origin-based with
		// most border interfaces correctly attributed through the IXP
		// and peering databases. Pure origin mapping (ip2as.Origin) and
		// a near-perfect bdrmapit are compared in the appxB2 ablation.
		Mapper:      ip2as.NewBdrmap(topo, 0.90, 0.005, cfg.Seed+7),
		TruthMapper: ip2as.Truth{Topo: topo},
		rng:         rand.New(rand.NewSource(cfg.Seed + 99)),
	}
	d.IngressSvc = ingress.NewService(prober, agents, ingress.AllHeuristics, cfg.Seed)
	// Background RR-atlas probes spoof from the vantage points the
	// ingress survey found closest to each hop (falling back to the raw
	// site list before the survey has run).
	pick := func(target ipv4.Addr) []measure.Agent {
		pfx, ok := topo.BGPPrefixOf(target)
		if !ok {
			return agents
		}
		plan := d.IngressSvc.PlanFor(pfx, ingress.SelIngress)
		out := make([]measure.Agent, 0, 3)
		for _, si := range plan.Order {
			out = append(out, agents[si])
			if len(out) == 3 {
				break
			}
		}
		return out
	}
	d.AtlasSvc = atlas.NewService(prober, probes, pick, res, cfg.AtlasSize, cfg.Seed)
	if !cfg.SkipSurvey {
		d.RunSurvey()
	}
	return d
}

// InjectFaults makes the built deployment unreliable: it parses spec
// (faults.Parse syntax), blacks out the last vpOutages spoof-capable
// vantage point sites from t=0 — never one of the first spare sites (a
// campaign's sources) — attaches the plan to the fabric, and has the
// probe pool re-issue an unanswered probe up to retries times. Called
// after Build, so the atlas and ingress survey are measured on a healthy
// network and only live measurements contend with the faults. It returns
// the plan, for SetObs and its tallies.
func (d *Deployment) InjectFaults(spec string, vpOutages, spare, retries int) (*faults.Plan, error) {
	plan, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	for i, n := len(d.SiteAgents)-1, 0; i >= spare && n < vpOutages; i-- {
		if d.SiteAgents[i].CanSpoof {
			plan.AddBlackout(d.SiteAgents[i].Addr, 0, 0)
			n++
		}
	}
	if plan.Enabled() {
		d.Fabric.SetFaults(plan)
	}
	d.Pool.SetRetry(probe.RetryPolicy{Max: retries})
	return plan, nil
}

// RunSurvey (re-)runs the weekly ingress survey over every routed prefix
// (§4.3).
func (d *Deployment) RunSurvey() {
	d.IngressSvc.Survey(d.Topo.AllBGPPrefixes(), d.SurveyDestinations)
}

// SurveyDestinations picks up to two probe targets inside a prefix:
// responsive hosts for announced space, router addresses for
// infrastructure space.
func (d *Deployment) SurveyDestinations(pfx ipv4.Prefix) []ipv4.Addr {
	var out []ipv4.Addr
	if pfx.Bits == 24 {
		asn, ok := d.Topo.BlockAS(pfx.Addr)
		if !ok {
			return nil
		}
		for _, hid := range d.Topo.ASes[asn].Hosts {
			h := &d.Topo.Hosts[hid]
			if pfx.Contains(h.Addr) && h.PingResponsive {
				out = append(out, h.Addr)
				if len(out) == 2 {
					return out
				}
			}
		}
		return out
	}
	// Infrastructure prefix: two responsive router loopbacks.
	asn, ok := d.Topo.BlockAS(pfx.Addr)
	if !ok {
		return nil
	}
	for _, rid := range d.Topo.ASes[asn].Routers {
		r := d.Topo.Routers[rid]
		if r.RespondsToPing && r.RespondsToOptions {
			out = append(out, r.Loopback)
			if len(out) == 2 {
				return out
			}
		}
	}
	return out
}

// NewSource registers a host as a Reverse Traceroute source: it builds
// the source's traceroute atlas including the §4.2 RR-alias background
// probes — the Appendix A bootstrap.
func (d *Deployment) NewSource(h *topology.Host) core.Source {
	a := measure.AgentFromHost(d.Topo, h)
	return core.Source{Agent: a, Atlas: d.AtlasSvc.BuildFor(a)}
}

// SourceFromAgent registers an arbitrary agent (e.g. an anycast site) as
// a source.
func (d *Deployment) SourceFromAgent(a measure.Agent) core.Source {
	return core.Source{Agent: a, Atlas: d.AtlasSvc.BuildFor(a)}
}

// Engine builds a Reverse Traceroute engine with the given options, using
// the deployment's services and an Ark-style adjacency corpus when
// Timestamp is enabled.
func (d *Deployment) Engine(opts core.Options) *core.Engine {
	var adj core.AdjacencyProvider
	if opts.UseTimestamp {
		adj = d.BuildAdjacencies(200)
	}
	return d.EngineWithAdjacencies(opts, adj)
}

// EngineWithAdjacencies is Engine with an explicit adjacency provider
// (the Appendix D.1 oracle experiments use this).
func (d *Deployment) EngineWithAdjacencies(opts core.Options, adj core.AdjacencyProvider) *core.Engine {
	return core.NewEngine(d.Fabric, d.Pool, d.IngressSvc, d.SiteAgents, d.Alias, d.Mapper, adj, opts)
}

// BuildAdjacencies assembles a traceroute-corpus adjacency dataset from n
// random probe→host traceroutes (the "links found in the Ark traceroutes
// from the two previous weeks", §5.2.1).
func (d *Deployment) BuildAdjacencies(n int) *core.TracerouteAdjacencies {
	adj := core.NewTracerouteAdjacencies()
	hosts := d.ResponsiveHosts()
	if len(hosts) == 0 || len(d.Probes) == 0 {
		return adj
	}
	for i := 0; i < n; i++ {
		p := d.Probes[d.rng.Intn(len(d.Probes))]
		h := hosts[d.rng.Intn(len(hosts))]
		if !p.Spend(1) {
			continue
		}
		adj.Ingest(d.Prober.Traceroute(p.Agent, h.Addr))
	}
	return adj
}

// ResponsiveHosts lists all ping-responsive hosts (the ISI hitlist
// analogue).
func (d *Deployment) ResponsiveHosts() []*topology.Host {
	var out []*topology.Host
	for i := range d.Topo.Hosts {
		if d.Topo.Hosts[i].PingResponsive {
			out = append(out, &d.Topo.Hosts[i])
		}
	}
	return out
}

// PickSourceHost returns the i'th host suitable as a source (ping- and
// RR-responsive, in a non-filtering AS).
func (d *Deployment) PickSourceHost(i int) *topology.Host {
	for hi := range d.Topo.Hosts {
		h := &d.Topo.Hosts[hi]
		if h.PingResponsive && h.RRResponsive && !d.Topo.ASes[h.AS].FiltersOptions {
			if i == 0 {
				return h
			}
			i--
		}
	}
	panic(fmt.Sprintf("revtr: no suitable source host at index %d", i))
}

// OnePerPrefix picks one ping-responsive host per announced prefix — the
// paper's large-scale destination set ("a ping-responsive host in each
// routed BGP prefix", §5.1).
func (d *Deployment) OnePerPrefix() []*topology.Host {
	seen := map[ipv4.Addr]bool{}
	var out []*topology.Host
	for i := range d.Topo.Hosts {
		h := &d.Topo.Hosts[i]
		if !h.PingResponsive {
			continue
		}
		key := h.Addr.Mask(24)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h)
	}
	return out
}

// FirstHostPerPrefix returns one host per announced prefix with no
// responsiveness filtering (the raw survey population of Table 6).
func (d *Deployment) FirstHostPerPrefix() []*topology.Host {
	seen := map[ipv4.Addr]bool{}
	var out []*topology.Host
	for i := range d.Topo.Hosts {
		h := &d.Topo.Hosts[i]
		key := h.Addr.Mask(24)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, h)
	}
	return out
}

// TrueReversePath returns the ground-truth router-level path from dst
// back to srcAddr (evaluation only).
func (d *Deployment) TrueReversePath(dst *topology.Host, srcAddr ipv4.Addr) []topology.RouterID {
	return d.Fabric.ForwardRouterPath(dst.Router, srcAddr, dst.Addr, 0)
}
