package atlas

import (
	"slices"

	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
)

// ClassicBuild is the atlas build before Doubletree, kept as the oracle
// the Doubletree build is held to: every traceroute swept all the way to
// the source, and every hop of every entry RR-probed. It draws probes in
// the order fill does, so a Service of the same seed picks the same ones.
// aliasOf names, for each RR alias, the entry whose probes revealed it.
func (s *Service) ClassicBuild(source measure.Agent) (a *Atlas, aliasOf map[ipv4.Addr]*Entry) {
	a, aliasOf = New(source), map[ipv4.Addr]*Entry{}
	for _, pi := range s.rng.Perm(len(s.Probes)) {
		probe := s.Probes[pi]
		if a.Size() >= s.Size {
			break
		}
		if !probe.Spend(1) {
			continue
		}
		tr := s.Prober.Traceroute(probe.Agent, a.Source.Addr)
		if !tr.ReachedDst {
			continue
		}
		e := a.Add(probe.Agent.Name, int32(probe.Agent.AS), tr.HopAddrs(), s.Prober.Now())
		clear(a.probed)
		a.BuildRRAliases(s.Prober, s.Pick, s.Alias, e)
		for x := range a.rrIndex {
			if aliasOf[x] == nil {
				aliasOf[x] = e
			}
		}
	}
	a.summarize(s.Mapper)
	return a, aliasOf
}

// Aliases returns, sorted, the addresses Lookup resolves through an RR
// alias.
func (a *Atlas) Aliases() []ipv4.Addr {
	var out []ipv4.Addr
	for x := range a.rrIndex {
		if ix, ok := a.Lookup(x); ok && ix.ViaRRAlias {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// AliasedHop returns the traceroute hop the RR alias x aligned to.
func (a *Atlas) AliasedHop(x ipv4.Addr) ipv4.Addr { return a.rrIndex[x] }

// Summarize recomputes MedianHops and ASHops as a build's last step does:
// for atlases built by hand.
func (a *Atlas) Summarize(m ip2as.Mapper) { a.summarize(m) }

// SetProbed records h as RR-probed, its direct ping answered or not, as
// BuildRRAliases would: for atlases built by hand.
func (a *Atlas) SetProbed(h ipv4.Addr, answered bool) {
	a.probed[h] = pingSilent
	if answered {
		a.probed[h] = pingDirect
	}
}

// SetSpoofedOnly records h as RR-probed, a spoofed ping answered where the
// direct one was not.
func (a *Atlas) SetSpoofedOnly(h ipv4.Addr) { a.probed[h] = pingSpoofed }

// Answered reports whether BuildRRAliases RR-probed h and whether a ping,
// direct or spoofed, drew a reply.
func (a *Atlas) Answered(h ipv4.Addr) (answered, probed bool) {
	ping, probed := a.probed[h]
	return ping != pingSilent, probed
}

// SpoofedOnly reports whether only a spoofed ping to h drew a reply.
func (a *Atlas) SpoofedOnly(h ipv4.Addr) bool { return a.probed[h] == pingSpoofed }
