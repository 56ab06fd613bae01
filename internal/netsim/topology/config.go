package topology

import "fmt"

// Vintage is the era of a generated Internet and of the vantage point
// deployment on it: the paper's 2016-versus-2020 contrast (Fig 11,
// Table 6, the flattening of Insight 1.7).
type Vintage int

const (
	// Vintage2020 is the flattened Internet: colo ASes near most
	// networks, vantage point sites hosted at them.
	Vintage2020 Vintage = iota
	// Vintage2016 is the pre-flattening Internet: far fewer colo ASes and
	// sparser peering, vantage point sites mostly at education and stub
	// networks — so they sit farther (in RR hops) from destinations.
	Vintage2016
)

// Config selects a generated Internet: a seed, a size and an era. Every
// other generator parameter is a constant below (or inline in gen.go).
type Config struct {
	Seed    int64
	NumASes int
	Vintage Vintage
}

// DefaultConfig returns the 2020 Internet with n ASes, seed 1.
func DefaultConfig(n int) Config {
	return Config{Seed: 1, NumASes: n}
}

// era holds the generator parameters the two vintages differ in: the
// share of colocation-style densely-peering ASes and how widely colo
// ASes, NRENs and stubs peer.
type era struct {
	coloFrac                 float64
	coloPeerMin, coloPeerMax int
	nrenPeerMin, nrenPeerMax int
	stubAtIXPFrac            float64 // stubs that peer directly at IXPs
}

var eras = [...]era{
	Vintage2020: {coloFrac: 0.05, coloPeerMin: 4, coloPeerMax: 12, nrenPeerMin: 5, nrenPeerMax: 15, stubAtIXPFrac: 0.15},
	Vintage2016: {coloFrac: 0.008, coloPeerMin: 2, coloPeerMax: 5, nrenPeerMin: 3, nrenPeerMax: 8, stubAtIXPFrac: 0.03},
}

// Generator parameters every era shares.
const (
	// Tier mix: the tier-1 clique (tier1Count), then transitFrac classic
	// transit, the era's colo share, nrenFrac research networks, and the
	// remainder stubs.
	transitFrac = 0.12
	nrenFrac    = 0.015

	// Core routers per AS, by tier.
	coreT1Min, coreT1Max           = 5, 9
	coreTransitMin, coreTransitMax = 2, 5
	coreStubMin, coreStubMax       = 1, 2

	prefixesPerStubMax = 3 // stubs announce 1..max prefixes
	hostsPerPrefix     = 4

	// Host responsiveness (Table 6).
	hostPingResponsive = 0.73 // hosts answering plain ping
	hostRRGivenPing    = 0.78 // ping-responsive hosts answering RR
	hostStamps         = 0.80 // hosts stamping their own address

	// Router behaviour.
	routerPingResponsive = 0.92
	routerOptResponsive  = 0.92  // ping-responsive routers answering echo with options
	snmpv3Responsive     = 0.305 // routers answering SNMPv3: 30.5 % per §4.4
	stampEgressP         = 0.68
	stampIngressP        = 0.10
	stampLoopbackP       = 0.08
	stampPrivateP        = 0.05 // remainder: StampNone
	dbrViolatorP         = 0.04 // destination-based-routing violators (Appx E)
	perPacketLBP         = 0.05 // random balancing of option packets

	// AS behaviour.
	asFiltersOptionsP = 0.015 // transit and stub ASes dropping transiting option packets
	asAllowsSpoofingP = 0.25  // transit, NREN and stub ASes permitting spoofed sources

	// Link latency ranges, microseconds.
	intraLatMinUS, intraLatMaxUS = 100, 3000
	interLatMinUS, interLatMaxUS = 1000, 30000
)

// tier1Count is the size of the tier-1 clique: it grows with the AS
// count, from 4 to 14.
func (c Config) tier1Count() int { return clampInt(c.NumASes/400, 4, 14) }

// minASes is the smallest AS count Generate accepts: the tier-1 clique
// and three ASes under it.
func (c Config) minASes() int { return c.tier1Count() + 3 }

// Validate rejects an AS count below the generator's floor. Generate
// does not call it — there a bad count is a programmer error and panics
// — so whatever takes the count from outside (the binaries' -ases flag)
// must.
func (c Config) Validate() error {
	if c.NumASes < c.minASes() {
		return fmt.Errorf("topology: %d ASes is below the minimum of %d", c.NumASes, c.minASes())
	}
	return nil
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
