package topology

import (
	"fmt"
	"math"
)

// Config controls topology generation. The zero value is not usable; start
// from DefaultConfig (a 2020-flavoured Internet: flattened, with colo ASes
// near most networks) or Config2016 (the pre-flattening Internet used for
// the Fig 11 / Table 6 comparison).
type Config struct {
	Seed    int64
	NumASes int

	// Tier mix. Tier1Count tier-1 ASes form a clique; ColoFrac of ASes
	// are colocation-style densely-peering networks (the flattening knob:
	// Insight 1.7), NRENFrac are research networks, TransitFrac classic
	// transit, and the remainder stubs.
	Tier1Count  int
	TransitFrac float64
	ColoFrac    float64
	NRENFrac    float64

	// Peering density multipliers (2016 topologies peer less).
	ColoPeerMin, ColoPeerMax int
	NRENPeerMin, NRENPeerMax int
	StubAtIXPFrac            float64 // stubs that peer directly at IXPs

	// Router counts per AS by tier.
	CoreT1Min, CoreT1Max           int
	CoreTransitMin, CoreTransitMax int
	CoreStubMin, CoreStubMax       int

	// Prefix/host population.
	PrefixesPerStubMax int // stubs announce 1..max prefixes
	HostsPerPrefix     int

	// Host responsiveness (Table 6 knobs).
	HostPingResponsive float64 // fraction of hosts answering plain ping
	HostRRGivenPing    float64 // fraction of ping-responsive answering RR
	HostStamps         float64 // fraction of RR-responsive hosts that stamp

	// Router behaviour.
	RouterPingResponsive float64
	RouterOptResponsive  float64 // routers answering echo with options
	SNMPv3Responsive     float64 // routers answering SNMPv3 (Table 2 study)
	StampEgressP         float64
	StampIngressP        float64
	StampLoopbackP       float64
	StampPrivateP        float64 // remainder: StampNone
	DBRViolatorP         float64 // destination-based-routing violators (Appx E)
	PerPacketLBP         float64 // random balancing of option packets

	// AS behaviour.
	ASFiltersOptionsP float64 // ASes dropping transiting option packets
	ASAllowsSpoofingP float64 // non-colo ASes permitting spoofed sources

	// Latency ranges, microseconds.
	IntraLatMinUS, IntraLatMaxUS int32
	InterLatMinUS, InterLatMaxUS int32
}

// DefaultConfig returns a 2020-flavoured Internet with n ASes.
func DefaultConfig(n int) Config {
	return Config{
		Seed:    1,
		NumASes: n,

		Tier1Count:  clampInt(n/400, 4, 14),
		TransitFrac: 0.12,
		ColoFrac:    0.05,
		NRENFrac:    0.015,

		ColoPeerMin: 4, ColoPeerMax: 12,
		NRENPeerMin: 5, NRENPeerMax: 15,
		StubAtIXPFrac: 0.15,

		CoreT1Min: 5, CoreT1Max: 9,
		CoreTransitMin: 2, CoreTransitMax: 5,
		CoreStubMin: 1, CoreStubMax: 2,

		PrefixesPerStubMax: 3,
		HostsPerPrefix:     4,

		HostPingResponsive: 0.73,
		HostRRGivenPing:    0.78,
		HostStamps:         0.80,

		RouterPingResponsive: 0.92,
		RouterOptResponsive:  0.92,
		SNMPv3Responsive:     0.305, // 30.5% per §4.4
		StampEgressP:         0.68,
		StampIngressP:        0.10,
		StampLoopbackP:       0.08,
		StampPrivateP:        0.05,
		DBRViolatorP:         0.04,
		PerPacketLBP:         0.05,

		ASFiltersOptionsP: 0.015,
		ASAllowsSpoofingP: 0.25,

		IntraLatMinUS: 100, IntraLatMaxUS: 3000,
		InterLatMinUS: 1000, InterLatMaxUS: 30000,
	}
}

// minASes is the smallest AS count Generate accepts: the tier-1 clique
// and three ASes under it.
func (c Config) minASes() int { return c.Tier1Count + 3 }

// Validate rejects unusable configurations: NaN/Inf or out-of-range
// probability fields and an AS count below the generator's floor.
// Generate does not call it — there a bad config is a programmer error
// and panics — so whatever accepts configs from outside (the binaries'
// -ases flag, simtest, fuzzers) must.
func (c Config) Validate() error {
	if c.NumASes < c.minASes() {
		return fmt.Errorf("topology: %d ASes is below the minimum of %d", c.NumASes, c.minASes())
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"TransitFrac", c.TransitFrac},
		{"ColoFrac", c.ColoFrac},
		{"NRENFrac", c.NRENFrac},
		{"StubAtIXPFrac", c.StubAtIXPFrac},
		{"HostPingResponsive", c.HostPingResponsive},
		{"HostRRGivenPing", c.HostRRGivenPing},
		{"HostStamps", c.HostStamps},
		{"RouterPingResponsive", c.RouterPingResponsive},
		{"RouterOptResponsive", c.RouterOptResponsive},
		{"SNMPv3Responsive", c.SNMPv3Responsive},
		{"StampEgressP", c.StampEgressP},
		{"StampIngressP", c.StampIngressP},
		{"StampLoopbackP", c.StampLoopbackP},
		{"StampPrivateP", c.StampPrivateP},
		{"DBRViolatorP", c.DBRViolatorP},
		{"PerPacketLBP", c.PerPacketLBP},
		{"ASFiltersOptionsP", c.ASFiltersOptionsP},
		{"ASAllowsSpoofingP", c.ASAllowsSpoofingP},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("topology: %s is not a finite number", f.name)
		}
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("topology: %s=%v outside [0,1]", f.name, f.v)
		}
	}
	return nil
}

// Config2016 returns a pre-flattening Internet: far fewer colo ASes and
// sparser peering, so vantage points end up farther (in RR hops) from
// destinations — the Fig 11 contrast.
func Config2016(n int) Config {
	c := DefaultConfig(n)
	c.ColoFrac = 0.008
	c.ColoPeerMin, c.ColoPeerMax = 2, 5
	c.NRENPeerMin, c.NRENPeerMax = 3, 8
	c.StubAtIXPFrac = 0.03
	return c
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
