package measure_test

// Differential suite for the traceroute start TTL: whatever TTL probing
// starts at, a last-link reader sees what the classic sweep from TTL 1
// shows it, and every packet is one the sweep would send.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"revtr/internal/measure"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

// lastLink is what core's classifyTraceroute reads from a traceroute:
// whether and at which TTL the target answered, and the nearest
// responsive public hop below it (below the end of the path when the
// target did not answer).
type lastLink struct {
	reached bool
	ttl     int
	penult  ipv4.Addr
}

func lastLinkOf(tr measure.TracerouteResult) lastLink {
	ll := lastLink{reached: tr.ReachedDst}
	if tr.ReachedDst {
		ll.ttl = len(tr.Hops)
	}
	hops := tr.HopAddrs()
	last := len(hops) - 1
	if tr.ReachedDst {
		last--
	}
	for i := last; i >= 0; i-- {
		if !hops[i].IsPrivate() {
			ll.penult = hops[i]
			break
		}
	}
	return ll
}

// startCorpus is the (agent, target) set: two sources, and as targets
// responsive hosts, unresponsive hosts, and the router interfaces on the
// way to them — the symmetry stage traceroutes to whatever hop it is
// stuck at, usually a router.
func startCorpus(env *simtest.Env) (agents []measure.Agent, targets []ipv4.Addr) {
	agents = []measure.Agent{env.Agent(env.SourceHost(0)), env.Agent(env.SourceHost(1))}
	seen := map[ipv4.Addr]bool{}
	add := func(a ipv4.Addr) {
		if !a.IsZero() && !seen[a] {
			seen[a] = true
			targets = append(targets, a)
		}
	}
	for i := 0; i < 24; i++ {
		if h := env.ResponsiveHost(i*3, agents[0].AS); h != nil {
			add(h.Addr)
			tr, _ := measure.RunTraceroute(env.Fabric, agents[0], h.Addr, 0, 0, 1)
			for _, hop := range tr.HopAddrs() {
				add(hop)
			}
		}
	}
	dead := 0
	for hi := range env.Topo.Hosts {
		if h := &env.Topo.Hosts[hi]; !h.PingResponsive && dead < 8 {
			add(h.Addr)
			dead++
		}
	}
	return agents, targets
}

func TestTracerouteStartDifferential(t *testing.T) {
	const seqBase = 5000
	plans := []struct {
		name  string
		spec  string
		nowUS int64
	}{
		{"clean", "", 0},
		// 400 ms into the limiter epoch, past the free burst, so rate
		// limiting bites as well as loss.
		{"faulty", "loss=0.03,icmp-frac=0.3,icmp-pass=0.5,seed=9", 400_000},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, plan := range plans {
			t.Run(fmt.Sprintf("seed%d/%s", seed, plan.name), func(t *testing.T) {
				env := simtest.NewFaulty(t, 300, seed, faults.MustParse(plan.spec))
				agents, targets := startCorpus(env)
				var packets [measure.MaxTracerouteTTL + 1]int
				trusted, divergent := 0, 0
				for _, a := range agents {
					for _, dst := range targets {
						classic, classicSent := measure.RunTraceroute(env.Fabric, a, dst, plan.nowUS, seqBase, 1)
						if !classic.Swept {
							t.Fatalf("start 1 did not run the sweep")
						}
						want := lastLinkOf(classic)
						for start := 1; start <= measure.MaxTracerouteTTL; start++ {
							var probed [measure.MaxTracerouteTTL + 1]bool
							lowest := measure.MaxTracerouteTTL + 1
							base := measure.Spec{Kind: measure.KindTraceroutePkt, VP: a, Dst: dst, Seq: seqBase}
							tr, sent := measure.RunTracerouteVia(base, start, func(sp measure.Spec) measure.Reply {
								ttl := int(sp.TTL)
								want := base
								want.TTL, want.Seq = sp.TTL, seqBase+uint64(ttl)
								if ttl < 1 || ttl > measure.MaxTracerouteTTL || !reflect.DeepEqual(sp, want) {
									t.Fatalf("start %d: issued %+v, the sweep's packet at that TTL is %+v", start, sp, want)
								}
								if probed[ttl] {
									t.Fatalf("start %d: TTL %d sent twice", start, ttl)
								}
								probed[ttl] = true
								lowest = min(lowest, ttl)
								return measure.Issue(env.Fabric, sp, plan.nowUS)
							})
							packets[start] += sent
							if start == 1 && (!reflect.DeepEqual(tr, classic) || sent != classicSent) {
								t.Fatalf("%s→%s: RunTraceroute is not runTraceroute at start 1", a.Addr, dst)
							}
							got := lastLinkOf(tr)
							switch {
							case tr.Swept:
								// The sweep ran over the window's replies: the same hops.
								if !reflect.DeepEqual(tr.Hops, classic.Hops) || tr.ReachedDst != classic.ReachedDst {
									t.Fatalf("%s→%s start %d: swept result differs from the classic one:\n%+v\n%+v", a.Addr, dst, start, tr, classic)
								}
							case got == want:
								trusted++
							case !classic.ReachedDst && len(classic.Hops) < lowest:
								// The admissible divergence: the sweep gave up on four
								// silent TTLs wholly below a window that answered.
								divergent++
							default:
								t.Fatalf("%s→%s start %d: last link %+v, classic %+v\n%+v\n%+v", a.Addr, dst, start, got, want, tr, classic)
							}
						}
					}
				}
				if trusted == 0 {
					t.Fatal("no window was ever trusted")
				}
				if plan.spec == "" && divergent != 0 {
					t.Fatalf("%d divergences from the classic sweep on a clean plan", divergent)
				}
				var sb strings.Builder
				for start := 1; start <= measure.MaxTracerouteTTL; start++ {
					fmt.Fprintf(&sb, " %d:%d", start, packets[start])
				}
				t.Logf("%d pairs, %d trusted windows, %d admissible divergences; corpus packets by start:%s",
					len(agents)*len(targets), trusted, divergent, sb.String())
			})
		}
	}
}

// FuzzTracerouteStart scripts the replies instead of walking a fabric: a
// path of some length whose hops below the target answer time-exceeded
// from a public or private address, stay silent, or come back
// undecodable, and whose target answers or is lost, one choice per TTL.
// For any start TTL the traceroute must issue each TTL at most once with
// the sweep's sequence number, account exactly what it sent, return the
// classic result whenever it swept, and otherwise show the classic last
// link — or have skipped a run of silence the sweep gave up on below
// the window. A dead vantage point costs one suppressed probe and
// yields the zero result.
func FuzzTracerouteStart(f *testing.F) {
	f.Add(uint8(1), uint8(6), false, []byte{})
	f.Add(uint8(14), uint8(12), false, []byte{0, 0, 1, 0})
	f.Add(uint8(5), uint8(9), false, []byte{0, 2, 2, 2, 2, 0, 0, 0, 0})
	f.Add(uint8(9), uint8(9), false, []byte{0, 0, 0, 0, 0, 0, 1, 1})
	f.Add(uint8(40), uint8(3), false, []byte{3, 0, 0, 2})
	f.Add(uint8(12), uint8(0), false, []byte{0, 0, 2})
	f.Add(uint8(200), uint8(41), true, []byte{})

	const seqBase = 77
	dst := ipv4.MustParseAddr("9.9.9.9")
	f.Fuzz(func(t *testing.T, start, length uint8, dead bool, pattern []byte) {
		pathLen := int(length) % (measure.MaxTracerouteTTL + 2) // 0: the target never answers
		reply := func(ttl int) measure.Reply {
			var b byte
			if ttl <= len(pattern) {
				b = pattern[ttl-1]
			}
			rep := measure.Reply{Sent: true}
			switch {
			case dead:
				return measure.Reply{VPDead: true}
			case b%4 == 2: // silence
			case b%4 == 3: // a reply that does not decode
				rep.Delivered = true
			case pathLen > 0 && ttl >= pathLen:
				rep.Delivered, rep.EchoReply = true, true
				rep.Hop = measure.TracerouteHop{Addr: dst, RTTUS: int64(1000 * ttl), Responded: true}
			default:
				addr := ipv4.Addr(8<<24 | uint32(ttl)) // 8.0.0.ttl
				if b%4 == 1 {
					addr = ipv4.Addr(10<<24 | uint32(ttl)) // 10.0.0.ttl
				}
				rep.Delivered = true
				rep.Hop = measure.TracerouteHop{Addr: addr, RTTUS: int64(1000 * ttl), Responded: true}
			}
			return rep
		}
		base := measure.Spec{Kind: measure.KindTraceroutePkt, Dst: dst, Seq: seqBase}
		run := func(start int) (measure.TracerouteResult, int, int) {
			var probed [measure.MaxTracerouteTTL + 1]bool
			issued, lowest := 0, measure.MaxTracerouteTTL+1
			tr, sent := measure.RunTracerouteVia(base, start, func(sp measure.Spec) measure.Reply {
				ttl := int(sp.TTL)
				if ttl < 1 || ttl > measure.MaxTracerouteTTL || sp.Seq != seqBase+uint64(ttl) || sp.Dst != dst {
					t.Fatalf("start %d: issued %+v", start, sp)
				}
				if probed[ttl] {
					t.Fatalf("start %d: TTL %d sent twice", start, ttl)
				}
				probed[ttl] = true
				issued++
				lowest = min(lowest, ttl)
				return reply(ttl)
			})
			if dead {
				if issued != 1 || sent != 0 || !reflect.DeepEqual(tr, measure.TracerouteResult{}) {
					t.Fatalf("start %d, dead VP: %d issued, %d sent, result %+v", start, issued, sent, tr)
				}
			} else if sent != issued {
				t.Fatalf("start %d: %d sent, %d issued", start, sent, issued)
			}
			return tr, sent, lowest
		}
		classic, classicSent, _ := run(1)
		tr, sent, lowest := run(int(start))
		switch {
		case dead:
		case start <= 1:
			if !reflect.DeepEqual(tr, classic) || sent != classicSent {
				t.Fatalf("start %d is not the classic sweep: %+v vs %+v", start, tr, classic)
			}
		case tr.Swept:
			if !reflect.DeepEqual(tr.Hops, classic.Hops) || tr.ReachedDst != classic.ReachedDst {
				t.Fatalf("start %d: swept result %+v, classic %+v", start, tr, classic)
			}
		case lastLinkOf(tr) == lastLinkOf(classic):
		case !classic.ReachedDst && len(classic.Hops) < lowest:
		default:
			t.Fatalf("start %d: last link %+v, classic %+v\n%+v\n%+v", start, lastLinkOf(tr), lastLinkOf(classic), tr, classic)
		}
	})
}
