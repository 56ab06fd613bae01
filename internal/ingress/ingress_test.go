package ingress_test

import (
	"reflect"
	"slices"
	"testing"

	"revtr/internal/ingress"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/simtest"
)

func surveyEnv(t testing.TB) (*simtest.Env, *ingress.Service) {
	t.Helper()
	return surveyEnvSeed(t, 6)
}

func surveyEnvSeed(t testing.TB, seed int64) (*simtest.Env, *ingress.Service) {
	t.Helper()
	env := simtest.New(t, 300, seed)
	svc := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, seed)
	prefixes, dests := announced(env)
	svc.Survey(prefixes, dests)
	return env, svc
}

// announced returns the world's announced /24s (cheap enough to survey in
// tests) and, for each, its first two ping-responsive hosts.
func announced(env *simtest.Env) ([]ipv4.Prefix, func(ipv4.Prefix) []ipv4.Addr) {
	var prefixes []ipv4.Prefix
	for _, as := range env.Topo.ASes {
		prefixes = append(prefixes, as.Prefixes...)
	}
	return prefixes, func(pfx ipv4.Prefix) []ipv4.Addr {
		var out []ipv4.Addr
		asn, ok := env.Topo.BlockAS(pfx.Addr)
		if !ok {
			return nil
		}
		for _, hid := range env.Topo.ASes[asn].Hosts {
			h := &env.Topo.Hosts[hid]
			if pfx.Contains(h.Addr) && h.PingResponsive {
				out = append(out, h.Addr)
				if len(out) == 2 {
					break
				}
			}
		}
		return out
	}
}

// TestSurveySilence: Silent holds exactly for the survey's destinations
// that no site's RR ping drew a reply from — a host that answers no option
// packet, a host behind an AS that drops transiting ones — and for no
// answered destination and no address the survey never probed; Heard for
// the answered ones alone. Every
// third prefix is surveyed through one destination, probed as both.
func TestSurveySilence(t *testing.T) {
	env := simtest.New(t, 300, 6)
	svc := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 6)
	prefixes, two := announced(env)
	single := map[ipv4.Prefix]bool{}
	for i, pfx := range prefixes {
		single[pfx] = i%3 == 0
	}
	dests := func(pfx ipv4.Prefix) []ipv4.Addr {
		ds := two(pfx)
		if single[pfx] && len(ds) > 1 {
			ds = ds[:1]
		}
		return ds
	}
	svc.Survey(prefixes, dests)

	heard := func(a ipv4.Addr) bool {
		return slices.ContainsFunc(env.Sites, func(site measure.Agent) bool { return env.Prober.RRPing(site, a).Responded })
	}
	surveyed := map[ipv4.Addr]bool{}
	var silent, answered, singleSilent, singleAnswered, notRR, filtered int
	for _, pfx := range prefixes {
		for _, a := range dests(pfx) {
			surveyed[a] = true
			want := !heard(a)
			if got := svc.Silent(a); got != want {
				t.Errorf("%s (prefix %v): Silent = %v, want %v", a, pfx, got, want)
			}
			if got := svc.Heard(a); got == want {
				t.Errorf("%s (prefix %v): Heard = %v, want %v", a, pfx, got, !want)
			}
			h, _ := env.Topo.HostOf(a)
			switch {
			case !want:
				answered++
				singleAnswered += btoi(single[pfx])
			default:
				silent++
				singleSilent += btoi(single[pfx])
				notRR += btoi(!h.RRResponsive)
				filtered += btoi(h.RRResponsive && env.Topo.ASes[h.AS].FiltersOptions)
			}
		}
	}
	t.Logf("%d survey destinations silent (%d alone in their prefix, %d not answering RR, %d behind an option filter), %d answered (%d alone)",
		silent, singleSilent, notRR, filtered, answered, singleAnswered)
	if singleSilent == 0 || singleAnswered == 0 || notRR == 0 || filtered == 0 || silent == singleSilent || answered == singleAnswered {
		t.Fatal("the survey lacks a kind of destination the test is about")
	}
	never := 0
	for i := range env.Topo.Hosts {
		if h := &env.Topo.Hosts[i]; !surveyed[h.Addr] {
			if svc.Heard(h.Addr) {
				t.Errorf("%s: never surveyed, yet Heard", h.Addr)
			}
			if !heard(h.Addr) {
				never++
				if svc.Silent(h.Addr) {
					t.Errorf("%s: never surveyed, yet Silent", h.Addr)
				}
			}
		}
	}
	if never == 0 || svc.Silent(ipv4.MustParseAddr("203.0.113.1")) {
		t.Errorf("%d silent hosts outside the survey checked; Silent(203.0.113.1) = %v", never, svc.Silent(ipv4.MustParseAddr("203.0.113.1")))
	}
}

// TestResurveyIsFresh: a survey replaces everything the last one found. A
// service that surveyed every prefix and then a quarter of them answers
// like a fresh service that surveyed only the quarter: the same per-prefix
// products, rankings and silent destinations. A probe's packet is its
// content, so both go out through the one prober: what the first survey
// sent does not change what the second one's probes meet.
func TestResurveyIsFresh(t *testing.T) {
	env := simtest.New(t, 300, 6)
	prefixes, dests := announced(env)
	quarter := prefixes[:len(prefixes)/4]
	again := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 6)
	again.Survey(prefixes, dests)
	again.Survey(quarter, dests)
	fresh := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 6)
	fresh.Survey(quarter, dests)

	if len(again.Info) != len(fresh.Info) || !reflect.DeepEqual(again.Info, fresh.Info) {
		t.Errorf("re-surveyed Info holds %d prefixes, fresh %d, or their products differ", len(again.Info), len(fresh.Info))
	}
	for _, sel := range []ingress.Selection{ingress.SelSetCover, ingress.SelGlobal} {
		if got, want := again.PlanFor(quarter[0], sel).Order, fresh.PlanFor(quarter[0], sel).Order; !slices.Equal(got, want) {
			t.Errorf("selection %d: re-surveyed order %v, fresh %v", sel, got, want)
		}
	}
	silent := 0
	for _, pfx := range prefixes {
		for _, a := range dests(pfx) {
			silent += btoi(fresh.Silent(a))
			if again.Silent(a) != fresh.Silent(a) {
				t.Errorf("%s: Silent re-surveyed %v, fresh %v", a, again.Silent(a), fresh.Silent(a))
			}
		}
	}
	if silent == 0 {
		t.Error("the quarter has no silent destination: the test compares half of what it claims")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSurveyFindsIngresses(t *testing.T) {
	env, svc := surveyEnv(t)
	withIngress, surveyed := 0, 0
	for _, info := range svc.Info {
		surveyed++
		if len(info.Ingresses) > 0 {
			withIngress++
		}
	}
	if surveyed == 0 {
		t.Fatal("nothing surveyed")
	}
	frac := float64(withIngress) / float64(surveyed)
	t.Logf("prefixes with ingresses: %d/%d (%.0f%%)", withIngress, surveyed, 100*frac)
	if frac < 0.3 {
		t.Errorf("too few prefixes with identified ingresses: %.2f", frac)
	}
	_ = env
}

func TestIngressSetCoverProperties(t *testing.T) {
	_, svc := surveyEnv(t)
	for _, info := range svc.Info {
		covered := map[int]bool{}
		for i, ing := range info.Ingresses {
			if len(ing.Sites) == 0 {
				t.Fatal("ingress with no sites")
			}
			// Ordered by coverage, descending.
			if i > 0 && len(ing.Sites) > len(info.Ingresses[i-1].Sites) {
				t.Fatalf("ingresses not ordered by coverage: %v", info.Prefix)
			}
			for _, s := range ing.Sites {
				if covered[s] {
					t.Fatalf("site %d covered by two ingresses in %v", s, info.Prefix)
				}
				covered[s] = true
			}
		}
	}
}

func TestPlanPolicies(t *testing.T) {
	_, svc := surveyEnv(t)
	// A prefix whose most popular ingress's nearest site is in RR range: a
	// plan holds only in-range sites, so an ingress alone does not make one.
	var pfx ipv4.Prefix
	for p, info := range svc.Info {
		if len(info.Ingresses) > 0 && info.Obs[info.Ingresses[0].Sites[0]].Dist <= ingress.InRangeHops {
			pfx = p
			break
		}
	}
	if pfx.Bits == 0 {
		t.Skip("no prefix with an in-range ingress")
	}
	ingPlan := svc.PlanFor(pfx, ingress.SelIngress)
	if !ingPlan.PerIngress || len(ingPlan.Order) == 0 {
		t.Fatal("ingress plan empty")
	}
	// No duplicate sites in a plan.
	seen := map[int]bool{}
	for _, s := range ingPlan.Order {
		if seen[s] {
			t.Fatal("duplicate site in ingress plan")
		}
		seen[s] = true
	}
	scPlan := svc.PlanFor(pfx, ingress.SelSetCover)
	glPlan := svc.PlanFor(pfx, ingress.SelGlobal)
	if len(scPlan.Order) == 0 || len(glPlan.Order) == 0 {
		t.Fatal("baseline plans empty")
	}
	if scPlan.PerIngress || glPlan.PerIngress {
		t.Fatal("baseline plans should not be per-ingress")
	}
	// Unsurveyed prefix falls back to the global ranking.
	fb := svc.PlanFor(ipv4.MustParsePrefix("203.0.113.0/24"), ingress.SelIngress)
	if len(fb.Order) != len(glPlan.Order) {
		t.Fatal("fallback plan is not the global ranking")
	}
}

func TestHeuristicsExtractMore(t *testing.T) {
	env := simtest.New(t, 300, 6)
	prefixes, dests := announced(env)
	plain := ingress.NewService(env.Prober, env.Sites, ingress.Heuristics{}, 6)
	plain.Survey(prefixes, dests)
	full := ingress.NewService(env.Prober, env.Sites, ingress.AllHeuristics, 6)
	full.Survey(prefixes, dests)
	count := func(s *ingress.Service) int {
		n := 0
		for _, info := range s.Info {
			if len(info.Ingresses) > 0 {
				n++
			}
		}
		return n
	}
	nPlain, nFull := count(plain), count(full)
	t.Logf("ingresses found: plain=%d full-heuristics=%d", nPlain, nFull)
	if nFull < nPlain {
		t.Errorf("heuristics reduced coverage: %d < %d", nFull, nPlain)
	}
}

// planOrderPerCall is the SelIngress order as PlanFor built it on every
// call before the order was stored with the survey: depth by depth over
// the ingresses, each site once. TestPlanForStoredOrder derives the stored
// order from it.
func planOrderPerCall(info *ingress.PrefixInfo) []int {
	var order []int
	seen := map[int]bool{}
	for depth := 0; depth < ingress.MaxFallbacksPerIngress; depth++ {
		added := false
		for _, ing := range info.Ingresses {
			if depth >= len(ing.Sites) {
				continue
			}
			si := ing.Sites[depth]
			if seen[si] {
				continue
			}
			order = append(order, si)
			seen[si] = true
			added = true
		}
		if !added {
			break
		}
	}
	return order
}

// inRangeByDistance is order without the sites the survey saw past
// InRangeHops, each depth level of the ingresses stably sorted by the
// survey's distance: a site's depth is its index in its ingress's Sites.
func inRangeByDistance(info *ingress.PrefixInfo, order []int) []int {
	depth := map[int]int{}
	for _, ing := range info.Ingresses {
		for d, si := range ing.Sites {
			depth[si] = d
		}
	}
	var out []int
	for _, si := range order {
		if info.Obs[si].Dist <= ingress.InRangeHops {
			out = append(out, si)
		}
	}
	slices.SortStableFunc(out, func(a, b int) int {
		if depth[a] != depth[b] {
			return depth[a] - depth[b]
		}
		return info.Obs[a].Dist - info.Obs[b].Dist
	})
	return out
}

// TestPlanForStoredOrder: the order computed once per prefix at survey
// time is the order PlanFor used to rebuild per call less the sites the
// survey saw out of RR range, nearest first within each depth, for every
// surveyed prefix of three worlds; and handing it out allocates nothing.
func TestPlanForStoredOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, svc := surveyEnvSeed(t, seed)
		perIngress, dropped := 0, 0
		var some ipv4.Prefix
		for pfx, info := range svc.Info {
			plan := svc.PlanFor(pfx, ingress.SelIngress)
			if len(info.Ingresses) == 0 {
				if plan.PerIngress || !slices.Equal(plan.Order, info.InRange) {
					t.Fatalf("seed %d %v: no ingress, plan %+v, want the in-range fallback %v", seed, pfx, plan, info.InRange)
				}
				continue
			}
			perIngress++
			some = pfx
			perCall := planOrderPerCall(info)
			dropped += len(perCall) - len(plan.Order)
			if want := inRangeByDistance(info, perCall); !plan.PerIngress || !slices.Equal(plan.Order, want) {
				t.Fatalf("seed %d %v: stored order %v, want %v (built per call %v)", seed, pfx, plan.Order, want, perCall)
			}
			for _, si := range plan.Order {
				if d := info.Obs[si].Dist; d < 1 || d > ingress.InRangeHops {
					t.Fatalf("seed %d %v: site %d in the plan at survey distance %d", seed, pfx, si, d)
				}
			}
		}
		if perIngress == 0 || dropped == 0 {
			t.Fatalf("seed %d: %d prefixes with ingresses, %d sites out of range: the test compares too little", seed, perIngress, dropped)
		}
		if n := testing.AllocsPerRun(100, func() { svc.PlanFor(some, ingress.SelIngress) }); n != 0 {
			t.Errorf("seed %d: PlanFor allocates %.0f times per call, want 0", seed, n)
		}
	}
}
