package measure_test

// Differential suite for the traceroute start TTL: whatever TTL probing
// starts at, and however its window climbs, a last-link reader sees what
// the classic sweep from TTL 1 shows it, and every packet is one the sweep
// would send.

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/faults"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

// lastLink is what core's symmetry stage reads from a traceroute:
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
			tr, _ := measure.RunTraceroute(env.Fabric, measure.Trace{Agent: agents[0], Dst: h.Addr, Start: 1, Run: measure.SilentRun}, 0)
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

// parentPackets is the corpus's packet total for each start 1…12, by
// seed and plan, measured on the parent of the change that let a window
// walk through silence (any silent TTL then ran the whole sweep). The new
// window must not cost more at any of them. Twelve is one and a half
// times these worlds' median path length; far above the end of a path a
// window pays for its start — it walks down every echo reply, or for a
// target that does not answer every silent TTL, where the old sweep
// walked up the short path — and the table the test logs shows how much.
// The faulty rows were measured again on that parent with its probes keyed
// on their content, as today's are: loss and rate limiting draw per packet,
// so the old keys' rows priced other draws (start 1 read 1126, 1494 and
// 1735 packets on the three seeds).
var parentPackets = map[string][12]int{
	"seed1/clean":  {1408, 1258, 1116, 990, 868, 802, 768, 830, 944, 1074, 1242, 1422},
	"seed1/faulty": {1212, 1198, 1169, 1144, 1141, 1115, 1142, 1223, 1316, 1391, 1486, 1538},
	"seed2/clean":  {1710, 1547, 1394, 1259, 1150, 1057, 1035, 1018, 1080, 1124, 1263, 1424},
	"seed2/faulty": {1475, 1461, 1453, 1436, 1403, 1385, 1429, 1468, 1511, 1628, 1693, 1771},
	"seed3/clean":  {2083, 2035, 1993, 1840, 1601, 1313, 1237, 1201, 1208, 1263, 1328, 1403},
	"seed3/faulty": {1877, 1874, 1872, 1859, 1834, 1818, 1808, 1828, 1865, 1908, 1962, 2060},
}

// TestTracerouteStartDifferential runs every window of the corpus from
// every start, one TTL at a time and climbing, against the classic sweep
// (the file's contract above), and bounds starts 1…12 by parentPackets. No
// window sweeps; on a clean plan every one shows the classic last link, and
// on a faulty one some reach the target where the sweep gave up on silence.
// Each plan has a second set of rows: the windows toward the targets that
// answer no echo, giving up after two silent TTLs going up (the run core
// gives a hop whose Record Route stage was silent, at no retries). No TTL
// is sent twice, every packet is the sweep's at its TTL, and each window
// shows the classic last link or stands on a hop under a run of silence
// the sweep walked through; over every start they cost fewer packets than
// the four-TTL give-up.
func TestTracerouteStartDifferential(t *testing.T) {
	const salt = 5000
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
			name := fmt.Sprintf("seed%d/%s", seed, plan.name)
			t.Run(name, func(t *testing.T) {
				env := simtest.NewFaulty(t, 300, seed, faults.MustParse(plan.spec))
				mapper := ip2as.Origin{Topo: env.Topo}
				agents, targets := startCorpus(env)
				var packets, climbed [measure.MaxTracerouteTTL + 1]int
				var unit, climb, short tally
				shortSent, fullSent := 0, 0 // toward the targets that answer no echo, starts 2 and up
				for _, a := range agents {
					for _, dst := range targets {
						sweep := measure.Trace{Agent: a, Dst: dst, Salt: salt, Start: 1, Run: measure.SilentRun}
						classic, _ := measure.RunTraceroute(env.Fabric, sweep, plan.nowUS)
						if !classic.Swept {
							t.Fatalf("start 1 did not run the sweep")
						}
						issue := func(sp measure.Spec) measure.Reply { return measure.Issue(env.Fabric, sp, plan.nowUS) }
						within := func(hop, dst ipv4.Addr) bool { return ip2as.SameAS(mapper, hop, dst) }
						for start := 1; start <= measure.MaxTracerouteTTL; start++ {
							base := measure.Spec{Kind: measure.KindTraceroutePkt, VP: a, Dst: dst, Seq: salt}
							tr, sent, w := runWatched(t, base, start, measure.SilentRun, nil, issue)
							packets[start] += sent
							if start == 1 {
								checkTwin(t, env.Fabric, sweep, plan.nowUS, tr, sent)
								climbed[start] += sent
								continue
							}
							label := fmt.Sprintf("%s→%s start %d", a.Addr, dst, start)
							unitDiv := unit.check(t, label, tr, w, classic, measure.SilentRun)
							trC, sentC, wC := runWatched(t, base, start, measure.SilentRun, within, issue)
							climbed[start] += sentC
							climbDiv := climb.check(t, label+" climbing", trC, wC, classic, measure.SilentRun)
							if lastLinkOf(trC) != lastLinkOf(tr) && !unitDiv && !climbDiv {
								t.Fatalf("%s: climbing, last link %+v; one TTL at a time %+v\n%+v\n%+v", label, lastLinkOf(trC), lastLinkOf(tr), trC, tr)
							}
							if !classic.ReachedDst {
								trS, sentS, wS := runWatched(t, base, start, 2, within, issue)
								short.check(t, label+" climbing, run 2", trS, wS, classic, 2)
								shortSent, fullSent = shortSent+sentS, fullSent+sentC
							}
						}
					}
				}
				if unit.stood == 0 || climb.stood == 0 || short.stood == 0 {
					t.Fatal("no window ever stood")
				}
				if shortSent >= fullSent {
					t.Errorf("toward targets that answer no echo, windows giving up after two silent TTLs sent %d packets, after four %d", shortSent, fullSent)
				}
				if plan.spec == "" && unit.echoed+unit.divergent+climb.echoed+climb.divergent != 0 {
					t.Fatalf("a window diverged from the classic sweep on a clean plan: %+v and, climbing, %+v", unit, climb)
				}
				if plan.spec != "" && (unit.echoed == 0 || climb.echoed == 0) {
					t.Fatalf("no window reached the target where the sweep gave up: %+v and, climbing, %+v", unit, climb)
				}
				var sb strings.Builder
				total, totalClimbed := 0, 0
				for start := 1; start <= measure.MaxTracerouteTTL; start++ {
					fmt.Fprintf(&sb, " %d:%d/%d", start, packets[start], climbed[start])
					total, totalClimbed = total+packets[start], totalClimbed+climbed[start]
				}
				for i, was := range parentPackets[name] {
					if packets[i+1] > was {
						t.Errorf("start %d: %d packets over the corpus, %d before windows walked through silence", i+1, packets[i+1], was)
					}
				}
				t.Logf("%d pairs; one TTL at a time %+v, climbing %+v; corpus packets by start, one TTL at a time/climbing:%s",
					len(agents)*len(targets), unit, climb, sb.String())
				t.Logf("toward targets that answer no echo, climbing: run 2 %+v, %d packets against %d at run 4", short, shortSent, fullSent)
				if plan.spec == "" && totalClimbed >= total {
					t.Errorf("climbing sent %d packets over every start, one TTL at a time %d", totalClimbed, total)
				}
			})
		}
	}
}

// tally counts how the windows of one kind compared with the classic
// sweep.
type tally struct{ stood, echoed, divergent, short int }

// check fails the test unless tr, a traceroute from the start label names
// that runWatched saw as w, giving up after run silent TTLs going up, is a
// window — never the sweep — and shows the classic sweep's last link, or
// diverges as RunTraceroute admits: the window reached the target where the
// sweep gave up on four silent TTLs in a row, and stands on the same
// penultimate hop; the sweep gave up on a run of four silent TTLs the
// window did not probe whole; or, run short of four, the window gave up on
// a run of silence the sweep walked through. It reports the divergence.
func (c *tally) check(t *testing.T, label string, tr measure.TracerouteResult, w watch, classic measure.TracerouteResult, run int) bool {
	t.Helper()
	switch n := len(classic.Hops); {
	case tr.Swept:
		t.Fatalf("%s: a window swept:\n%+v", label, tr)
	case lastLinkOf(tr) == lastLinkOf(classic):
		c.stood++
	case tr.ReachedDst && !classic.ReachedDst && n >= silentRun && lastLinkOf(tr).penult == lastLinkOf(classic).penult:
		c.echoed++
		return true
	case !classic.ReachedDst && n >= silentRun && !w.sawAll(n-silentRun+1, n):
		c.divergent++
		return true
	case run < silentRun && !tr.ReachedDst && len(tr.Hops) < n && w.silentAll(len(tr.Hops)-run+1, len(tr.Hops)):
		c.short++
		return true
	default:
		t.Fatalf("%s: last link %+v, classic %+v\n%+v\n%+v", label, lastLinkOf(tr), lastLinkOf(classic), tr, classic)
	}
	return false
}

// silentRun is measure's give-up rule: four TTLs in a row that drew nothing.
const silentRun = 4

// watch is what runWatched saw of one traceroute: the TTLs issued, how
// many, and those that drew nothing.
type watch struct {
	issued         int
	probed, silent uint64
}

// silentAll reports whether the traceroute probed every TTL from lo to hi
// and each drew nothing.
func (w watch) silentAll(lo, hi int) bool {
	return lo >= 1 && w.sawAll(lo, hi) && bits.OnesCount64(w.silent>>lo&(uint64(1)<<(hi-lo+1)-1)) == hi-lo+1
}

// sawAll reports whether the traceroute probed every TTL from lo to hi.
func (w watch) sawAll(lo, hi int) bool {
	for ttl := lo; ttl <= hi; ttl++ {
		if w.probed>>ttl&1 == 0 {
			return false
		}
	}
	return true
}

// checkTwin fails the test unless RunTraceroute, the one entry point, runs
// tc on f at nowUS into tr and sent, as its issue-path twin did.
func checkTwin(t *testing.T, f *fabric.Fabric, tc measure.Trace, nowUS int64, tr measure.TracerouteResult, sent int) {
	t.Helper()
	if pub, pubSent := measure.RunTraceroute(f, tc, nowUS); !reflect.DeepEqual(pub, tr) || pubSent != sent {
		t.Fatalf("%s→%s from TTL %d: RunTraceroute is not runTraceroute", tc.Agent.Addr, tc.Dst, tc.Start)
	}
}

// runWatched runs the traceroute from start over issue, climbing by within
// and giving up after run silent TTLs going up, and fails the test unless
// every Spec it is handed is the sweep's packet at that TTL — base with the
// TTL set — no TTL is issued twice, and the result's Probed holds exactly
// the TTLs sent.
func runWatched(t *testing.T, base measure.Spec, start, run int, within func(hop, dst ipv4.Addr) bool, issue func(measure.Spec) measure.Reply) (measure.TracerouteResult, int, watch) {
	t.Helper()
	var sentTTLs uint64
	var w watch
	tc := measure.Trace{Agent: base.VP, Dst: base.Dst, Salt: base.Seq, Start: start, Run: run, Within: within}
	tr, sent := measure.RunTracerouteVia(tc, func(sp measure.Spec) measure.Reply {
		ttl := int(sp.TTL)
		want := base
		want.TTL = sp.TTL
		if ttl < 1 || ttl > measure.MaxTracerouteTTL || !reflect.DeepEqual(sp, want) {
			t.Fatalf("start %d: issued %+v, the sweep's packet at that TTL is %+v", start, sp, want)
		}
		if w.probed>>ttl&1 == 1 {
			t.Fatalf("start %d: TTL %d sent twice", start, ttl)
		}
		w.probed |= 1 << ttl
		w.issued++
		rep := issue(sp)
		if !rep.Delivered {
			w.silent |= 1 << ttl
		}
		if rep.Sent {
			sentTTLs |= 1 << ttl
		}
		return rep
	})
	if tr.Probed != sentTTLs {
		t.Fatalf("start %d: Probed %#x, TTLs sent %#x", start, tr.Probed, sentTTLs)
	}
	return tr, sent, w
}

// FuzzTracerouteStart scripts the replies instead of walking a fabric: a
// path of some length whose hops below the target answer time-exceeded
// from a public or private address, stay silent, or come back
// undecodable, and whose target answers or is lost, one choice per TTL,
// with a bit per TTL that says whether its hop is in the target's AS. For
// any start TTL and a give-up run of 2, 3 or 4 silent TTLs going up, the
// traceroute, climbing one TTL at a time or by that bit, must issue each
// TTL at most once, as the sweep's packet at that TTL, account exactly
// what it sent in its count and its Probed bits, never sweep from a start
// above 1, and show the classic last link, or have reached the target on
// the penultimate hop the sweep gave up at, or have missed part of the run
// of silence the sweep gave up on, or, run short of four, have given up on
// a run of silence the sweep walked through. The climbing window shows the
// last link of the one that climbs one TTL at a time but where one of them
// diverged. A dead vantage point costs one suppressed probe and yields the
// zero result.
func FuzzTracerouteStart(f *testing.F) {
	f.Add(uint8(1), uint8(6), false, uint8(2), []byte{})
	f.Add(uint8(14), uint8(12), false, uint8(2), []byte{0, 0, 1, 0})
	f.Add(uint8(5), uint8(9), false, uint8(2), []byte{0, 2, 2, 2, 2, 0, 0, 0, 0})
	f.Add(uint8(9), uint8(9), false, uint8(2), []byte{0, 0, 0, 0, 0, 0, 1, 1})
	f.Add(uint8(40), uint8(3), false, uint8(2), []byte{3, 0, 0, 2})
	f.Add(uint8(12), uint8(0), false, uint8(2), []byte{0, 0, 2})
	f.Add(uint8(200), uint8(41), true, uint8(2), []byte{})
	// Walks up into MaxTracerouteTTL on a hop that answers, above a run of
	// four silent TTLs: that hop stands in, not one under the run.
	f.Add(uint8(43), uint8(41), false, uint8(2), []byte("000000000000000000000000000000000002222"))
	f.Add(uint8(6), uint8(8), false, uint8(2), []byte{0, 0, 0, 2, 2, 2, 2, 0})
	f.Add(uint8(9), uint8(5), false, uint8(2), []byte{0, 0, 0, 0, 0, 2, 2, 2, 2})
	// Climbs from TTL 2 over 3 and 4 to 5; their silence and 5's and 6's
	// is the run the sweep gave up on, and the window walks on past it.
	f.Add(uint8(2), uint8(0), false, uint8(2), []byte{0, 0, 2, 2, 2, 2, 0, 0})
	// Climbs from TTL 3 past the target's first echo reply at 5, then
	// inside its AS one TTL at a time.
	f.Add(uint8(3), uint8(5), false, uint8(2), []byte{0, 0, 0, 4, 4, 4})
	// Gives up after two silent TTLs at 5 and 6, under a hop at 7 and the
	// target's echo reply at 9 that the sweep walks on to.
	f.Add(uint8(3), uint8(9), false, uint8(0), []byte{0, 0, 0, 0, 2, 2, 0, 2})
	// Three: the run of two at 5 and 6 does not end the walk, the one of
	// three at 8, 9 and 10 does, above a target that never answers.
	f.Add(uint8(4), uint8(0), false, uint8(1), []byte{0, 0, 0, 0, 2, 2, 0, 2, 2, 2, 0})
	// Two runs of four silent TTLs, 2–5 and 7–10, under the echo reply at
	// 11. From 6 the window gives up at 10 and stands on 6; climbing, it
	// jumps to 9 and reaches 11, and walks down through 10…7 to 6. Neither
	// probes the run 2–5 the sweep gave up on.
	f.Add(uint8(6), uint8(11), false, uint8(2), []byte{0, 2, 2, 2, 2, 0, 2, 2, 2, 2})
	// The same, with 6's reply undecodable: from 11 the walk down passes
	// both runs and stands on 1, where the sweep gave up, under the echo.
	f.Add(uint8(11), uint8(11), false, uint8(2), []byte{0, 2, 2, 2, 2, 3, 2, 2, 2, 2})

	const salt = 77
	dst := ipv4.MustParseAddr("9.9.9.9")
	f.Fuzz(func(t *testing.T, start, length uint8, dead bool, runByte uint8, pattern []byte) {
		giveUp := 2 + int(runByte%3)                            // 2, 3 or measure.SilentRun
		pathLen := int(length) % (measure.MaxTracerouteTTL + 2) // 0: the target never answers
		at := func(ttl int) byte {
			if ttl >= 1 && ttl <= len(pattern) {
				return pattern[ttl-1]
			}
			return 0
		}
		within := func(hop, dst ipv4.Addr) bool { return hop == dst || at(int(hop&0xff))&4 != 0 }
		reply := func(ttl int) measure.Reply {
			b := at(ttl)
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
		base := measure.Spec{Kind: measure.KindTraceroutePkt, Dst: dst, Seq: salt}
		run := func(start int, within func(hop, dst ipv4.Addr) bool) (measure.TracerouteResult, int, watch) {
			tr, sent, w := runWatched(t, base, start, giveUp, within, func(sp measure.Spec) measure.Reply { return reply(int(sp.TTL)) })
			if dead {
				if w.issued != 1 || sent != 0 || !reflect.DeepEqual(tr, measure.TracerouteResult{}) {
					t.Fatalf("start %d, dead VP: %d issued, %d sent, result %+v", start, w.issued, sent, tr)
				}
			} else if sent != w.issued {
				t.Fatalf("start %d: %d sent, %d issued", start, sent, w.issued)
			}
			return tr, sent, w
		}
		classic, classicSent, _ := run(1, nil)
		tr, sent, w := run(int(start), nil)
		trC, sentC, wC := run(int(start), within)
		var c tally
		switch {
		case dead:
		case start <= 1:
			if !reflect.DeepEqual(tr, classic) || sent != classicSent || !reflect.DeepEqual(trC, classic) || sentC != classicSent {
				t.Fatalf("start %d is not the classic sweep: %+v and, climbing, %+v vs %+v", start, tr, trC, classic)
			}
		case !c.check(t, fmt.Sprint("start ", start), tr, w, classic, giveUp) &&
			!c.check(t, fmt.Sprint("start ", start, " climbing"), trC, wC, classic, giveUp) &&
			lastLinkOf(trC) != lastLinkOf(tr):
			t.Fatalf("start %d: climbing, last link %+v; one TTL at a time %+v\n%+v\n%+v", start, lastLinkOf(trC), lastLinkOf(tr), trC, tr)
		}
	})
}

// TestTracerouteWindowWalksDownThroughSilence: from the echo reply at 10,
// a window walks down through the four silent TTLs 9…6 to the hop at 5 —
// the sweep gives up on them at 9, standing on the same hop — and sends
// exactly TTLs 10…5, in that order. A dead vantage point ends the walk.
func TestTracerouteWindowWalksDownThroughSilence(t *testing.T) {
	dst := ipv4.MustParseAddr("9.9.9.9")
	var order []int
	reply := func(sp measure.Spec) measure.Reply {
		order = append(order, int(sp.TTL))
		switch ttl := int(sp.TTL); {
		case ttl >= 10:
			return measure.Reply{Sent: true, Delivered: true, EchoReply: true, Hop: measure.TracerouteHop{Addr: dst, Responded: true}}
		case ttl >= 6: // silent
			return measure.Reply{Sent: true}
		default:
			return measure.Reply{Sent: true, Delivered: true, Hop: measure.TracerouteHop{Addr: ipv4.Addr(8<<24 | uint32(ttl)), Responded: true}}
		}
	}
	classic, _ := measure.RunTracerouteVia(measure.Trace{Dst: dst, Salt: 1, Start: 1, Run: measure.SilentRun}, reply)
	order = nil
	tr, sent := measure.RunTracerouteVia(measure.Trace{Dst: dst, Salt: 1, Start: 10, Run: measure.SilentRun}, reply)
	if want := []int{10, 9, 8, 7, 6, 5}; sent != len(want) || !slices.Equal(order, want) {
		t.Fatalf("sent %d, TTLs %v; want %v", sent, order, want)
	}
	if ll := lastLinkOf(tr); tr.Swept || ll != (lastLink{reached: true, ttl: 10, penult: ipv4.Addr(8<<24 | 5)}) || ll.penult != lastLinkOf(classic).penult {
		t.Fatalf("window %+v; classic %+v", tr, classic)
	}
	// Continued below TTL 10 from a vantage point gone dark, the walk down
	// meets the blackout at 9 and yields nothing.
	prev := measure.TracerouteResult{Hops: make([]measure.TracerouteHop, 10), Probed: 1 << 10}
	dead := func(measure.Spec) measure.Reply { return measure.Reply{VPDead: true} }
	if tr, sent := measure.RunTracerouteVia(measure.Trace{Dst: dst, Salt: 1, Start: 10, Run: measure.SilentRun, Prev: &prev}, dead); sent != 0 || !reflect.DeepEqual(tr, measure.TracerouteResult{}) {
		t.Fatalf("continued from a dead vantage point: %+v, %d sent", tr, sent)
	}
}

// TestTracerouteStopSet: a sweep with a stop set is the classic sweep cut
// after the first responsive hop the set holds — same packets up to
// there, none after, Stopped set and ReachedDst not. The destination's
// echo reply ends the sweep as reached even when the set holds it, and a
// window ignores the set.
func TestTracerouteStopSet(t *testing.T) {
	dst := ipv4.MustParseAddr("9.9.9.9")
	reply := func(sp measure.Spec) measure.Reply {
		switch ttl := int(sp.TTL); {
		case ttl == 3: // silent
			return measure.Reply{Sent: true}
		case ttl >= 8:
			return measure.Reply{Sent: true, Delivered: true, EchoReply: true, Hop: measure.TracerouteHop{Addr: dst, Responded: true}}
		default:
			return measure.Reply{Sent: true, Delivered: true, Hop: measure.TracerouteHop{Addr: ipv4.Addr(8<<24 | uint32(ttl)), Responded: true}}
		}
	}
	sweep := measure.Trace{Dst: dst, Salt: 1, Start: 1, Run: measure.SilentRun}
	classic, classicSent := measure.RunTracerouteVia(sweep, reply)
	holds := func(addrs ...ipv4.Addr) func(ipv4.Addr) bool {
		return func(a ipv4.Addr) bool { return slices.Contains(addrs, a) }
	}
	if !classic.ReachedDst || classic.Stopped || classicSent != 8 {
		t.Fatalf("classic sweep: %+v, %d sent", classic, classicSent)
	}
	stopAt := func(start int, stop func(ipv4.Addr) bool) measure.Trace {
		tc := sweep
		tc.Start, tc.Stop = start, stop
		return tc
	}
	tr, sent := measure.RunTracerouteVia(stopAt(1, holds(0, ipv4.Addr(8<<24|5), ipv4.Addr(8<<24|6))), reply)
	if !tr.Stopped || tr.ReachedDst || sent != 5 || !reflect.DeepEqual(tr.Hops, classic.Hops[:5]) {
		t.Fatalf("stop at TTL 5: %+v, %d sent; classic %+v", tr, sent, classic.Hops)
	}
	if tr, sent := measure.RunTracerouteVia(stopAt(1, holds(dst)), reply); !tr.ReachedDst || tr.Stopped || sent != 8 {
		t.Fatalf("a set holding the destination: %+v, %d sent", tr, sent)
	}
	if tr, _ := measure.RunTracerouteVia(stopAt(6, holds(ipv4.Addr(8<<24|6))), reply); tr.Stopped || !tr.ReachedDst {
		t.Fatalf("a window stopped: %+v", tr)
	}
}

// TestContinueTraceroute: continuing a traceroute below its penultimate
// hop reads every TTL the traceroute to the destination probed and sends
// only the TTLs it did not, and on a clean plan the last link it shows is
// the classic sweep's cut at that hop. Continuing the sweep itself sends
// nothing. Continuing a tail window started at the destination's TTL, or
// one that climbed from TTL 2 over the ASes short of the destination's and
// left gaps, sends no TTL the first walk sent, and the result's Probed is
// the first walk's bits up to the hop and the TTLs the continuation sent.
// Toward a target that answers no echo the same holds of windows that gave
// up after two silent TTLs, continued below the hop they stood on: started
// at the sweep's last responsive hop, or climbing from TTL 2.
func TestContinueTraceroute(t *testing.T) {
	const salt = 5000
	inHand, continued, gapped, silentTargets := 0, 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		env := simtest.New(t, 300, seed)
		mapper := ip2as.Origin{Topo: env.Topo}
		within := func(hop, dst ipv4.Addr) bool { return ip2as.SameAS(mapper, hop, dst) }
		agents, targets := startCorpus(env)
		for _, a := range agents {
			for _, dst := range targets {
				base := measure.Spec{Kind: measure.KindTraceroutePkt, VP: a, Dst: dst, Seq: salt}
				trace := measure.Trace{Agent: a, Dst: dst, Salt: salt}
				from := func(start, run int, within func(hop, dst ipv4.Addr) bool) measure.Trace {
					tc := trace
					tc.Start, tc.Run, tc.Within = start, run, within
					return tc
				}
				issue := func(sp measure.Spec) measure.Reply { return measure.Issue(env.Fabric, sp, 0) }
				// cont continues prev below its hop at top, giving up after run
				// silent TTLs, and checks it against the sweep cut there: the hop
				// at top stands for the destination.
				cont := func(prev measure.TracerouteResult, top, run int, classic measure.TracerouteResult) {
					cut := classic
					cut.Hops, cut.ReachedDst = classic.Hops[:top], true
					want := lastLinkOf(cut)
					var sentTTLs uint64
					below := from(top, run, nil)
					below.Prev = &prev
					tr, sent := measure.RunTracerouteVia(below, func(sp measure.Spec) measure.Reply {
						if prev.Probed>>sp.TTL&1 == 1 {
							t.Fatalf("%s→%s below TTL %d, run %d: TTL %d sent again", a.Addr, dst, top, run, sp.TTL)
						}
						want := base
						if want.TTL = sp.TTL; !reflect.DeepEqual(sp, want) {
							t.Fatalf("%s→%s below TTL %d, run %d: issued %+v, not the sweep's packet at that TTL", a.Addr, dst, top, run, sp)
						}
						sentTTLs |= 1 << sp.TTL
						return issue(sp)
					})
					checkTwin(t, env.Fabric, below, 0, tr, sent)
					if got := lastLinkOf(tr); got != want {
						t.Fatalf("%s→%s below TTL %d, run %d: last link %+v, the sweep cut there %+v", a.Addr, dst, top, run, got, want)
					}
					if upTo := uint64(1)<<(top+1) - 1; bits.OnesCount64(sentTTLs) != sent || tr.Probed != prev.Probed&upTo|sentTTLs {
						t.Fatalf("%s→%s below TTL %d: %d sent, TTLs %#x; Probed %#x, the first walk's %#x", a.Addr, dst, top, sent, sentTTLs, tr.Probed, prev.Probed)
					}
					if prev.Swept && sent != 0 {
						t.Fatalf("%s→%s below TTL %d: the sweep holds every TTL, yet %d sent", a.Addr, dst, top, sent)
					}
					if sent == 0 {
						inHand++
					}
					if low := bits.TrailingZeros64(prev.Probed); bits.OnesCount64(prev.Probed&(uint64(1)<<top-1)) < top-low {
						gapped++
					}
					continued++
				}
				classic, _ := measure.RunTraceroute(env.Fabric, from(1, measure.SilentRun, nil), 0)
				ll := lastLinkOf(classic)
				ttlOf := func(tr measure.TracerouteResult, hop ipv4.Addr) int {
					return slices.IndexFunc(tr.Hops, func(h measure.TracerouteHop) bool { return h.Addr == hop }) + 1
				}
				if !ll.reached {
					// A target that answers no echo: windows that give up after two
					// silent TTLs, continued below the hop they stood on where the
					// sweep reached it.
					last := ttlOf(classic, ll.penult)
					if ll.penult.IsZero() || last < 3 {
						continue
					}
					silentTargets++
					window, _ := measure.RunTracerouteVia(from(last, 2, nil), issue)
					climbed, _ := measure.RunTracerouteVia(from(2, 2, within), issue)
					for _, prev := range []measure.TracerouteResult{window, climbed} {
						if top := ttlOf(prev, lastLinkOf(prev).penult); top >= 2 && top <= len(classic.Hops) && classic.Hops[top-1] == prev.Hops[top-1] {
							cont(prev, top, 2, classic)
						}
					}
					continue
				}
				if ll.penult.IsZero() || ll.ttl < 3 {
					continue
				}
				top := ttlOf(classic, ll.penult)
				window, _ := measure.RunTracerouteVia(from(ll.ttl, measure.SilentRun, nil), issue)
				climbed, _ := measure.RunTracerouteVia(from(2, measure.SilentRun, within), issue)
				for _, prev := range []measure.TracerouteResult{classic, window, climbed} {
					cont(prev, top, measure.SilentRun, classic)
				}
			}
		}
	}
	if inHand == 0 || inHand == continued || gapped == 0 || silentTargets == 0 {
		t.Fatalf("%d of %d continuations sent nothing, %d continued a walk with gaps under the hop, %d toward targets that answer no echo: the corpus misses a case", inHand, continued, gapped, silentTargets)
	}
	t.Logf("%d continuations, %d in hand, %d of a walk with gaps under the hop; %d targets answer no echo", continued, inHand, gapped, silentTargets)
}
