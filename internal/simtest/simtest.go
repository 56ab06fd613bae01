// Package simtest assembles small simulated deployments for the unit
// tests of the measurement-layer packages (measure, atlas, ingress, core)
// without depending on the public revtr package.
package simtest

import (
	"testing"

	"revtr/internal/alias"
	"revtr/internal/measure"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/topology"
	"revtr/internal/probe"
	"revtr/internal/vantage"
)

// Env is a ready-to-probe simulated Internet. Prober and Pool share one
// clock, so serial and pooled probing see the same virtual time.
type Env struct {
	Topo   *topology.Topology
	Fabric *fabric.Fabric
	Prober *measure.Prober
	Pool   *probe.Pool
	Sites  []measure.Agent
	Probes []*vantage.Probe
	Alias  *alias.Combined
}

// New builds an Env with n ASes, deterministic in seed.
func New(t testing.TB, n int, seed int64) *Env {
	t.Helper()
	cfg := topology.Config{Seed: seed, NumASes: n}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("simtest: invalid topology config: %v", err)
	}
	topo := topology.Generate(cfg)
	routing := bgp.NewRouting(topo, bgp.DefaultTieBreak(seed), 64)
	fab := fabric.New(topo, routing, seed)
	sites := vantage.PlaceSites(topo, 12, topology.Vintage2020, seed)
	agents := make([]measure.Agent, len(sites))
	for i, s := range sites {
		agents[i] = s.Agent
	}
	clock := measure.NewClock()
	return &Env{
		Topo:   topo,
		Fabric: fab,
		Prober: measure.NewProberWithClock(fab, clock),
		Pool:   probe.New(fab, clock, 0),
		Sites:  agents,
		Probes: vantage.PlaceProbes(topo, 60, 1_000_000, seed),
		Alias: &alias.Combined{
			Midar: alias.NewMidar(topo, 0.35, seed),
			SNMP:  alias.NewSNMP(topo, seed),
		},
	}
}

// NewFaulty is New with a fault plan attached to the fabric: the chaos
// harness entry point. plan may be nil (equivalent to New); a non-nil
// plan must Validate.
func NewFaulty(t testing.TB, n int, seed int64, plan *faults.Plan) *Env {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatalf("simtest: invalid fault plan: %v", err)
	}
	env := New(t, n, seed)
	env.Fabric.SetFaults(plan)
	return env
}

// SourceHost returns the i'th host usable as a source.
func (e *Env) SourceHost(i int) *topology.Host {
	for hi := range e.Topo.Hosts {
		h := &e.Topo.Hosts[hi]
		if h.PingResponsive && h.RRResponsive && !e.Topo.ASes[h.AS].FiltersOptions {
			if i == 0 {
				return h
			}
			i--
		}
	}
	panic("simtest: no source host")
}

// Agent builds a measurement agent at host h.
func (e *Env) Agent(h *topology.Host) measure.Agent {
	return measure.AgentFromHost(e.Topo, h)
}

// ResponsiveHost returns the i'th RR-responsive host outside AS avoid.
func (e *Env) ResponsiveHost(i int, avoid topology.ASN) *topology.Host {
	for hi := range e.Topo.Hosts {
		h := &e.Topo.Hosts[hi]
		if h.PingResponsive && h.RRResponsive && h.AS != avoid {
			if i == 0 {
				return h
			}
			i--
		}
	}
	return nil
}
