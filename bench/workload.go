package main

import (
	"math/rand"
	"time"

	"revtr/internal/detrand"
)

// workload is one traffic mix. A job is one requested (src, dst) pair;
// a request is one client round trip (a sync POST, or a batch POST
// followed on /events to its end event plus the final status GET); a
// day is one unit of work, begun by Clock.Advance(25h) and ResetDay so
// TTL expiry and the day-cache reset happen inside the timed window.
type workload struct {
	name, why string
	// sync selects POST /api/v1/revtr with one pair per request; every
	// 4th request also fetches an earlier result by ID.
	sync  bool
	users int
	batch int // pairs per batch request
	// zipf draws pairs with replacement from a zipf(1.1) rank
	// distribution; otherwise a day's pairs are distinct.
	zipf       bool
	segmentTTL time.Duration
	faults     string
	blackouts  int
	retries    int
}

var workloads = []workload{
	{
		name: "interactive", sync: true, users: 1,
		why: "sync POST /revtr, distinct pairs: HTTP and sched overhead are smallest, so core, probe, measure and fabric do the work through the blocking engine entry, with store appends beside reads",
	},
	{
		name: "batch-unique", users: 2, batch: 32,
		why: "batches of 32 never-repeated pairs followed on /events: every job leads its own flight, so the cost is sched dispatch, the async streaming engine entry, stream publish and NDJSON delivery",
	},
	{
		name: "batch-zipf", users: 3, batch: 64, zipf: true, segmentTTL: time.Hour,
		why: "zipf(1.1) batches of 64 with the segment store on: most jobs coalesce or hit the day cache, so sched admission, service JSON and segments do the work and fabric almost none",
	},
	{
		name: "batch-lossy", users: 2, batch: 32,
		faults: "loss=0.02,icmp-frac=0.3,icmp-pass=0.5", blackouts: 3, retries: 2,
		why: "batch-unique under 2% link loss, ICMP rate limiting and 3 dead VP sites with 2 retries: the recovery path (backoff, VP failover, dead-VP cache, fault hooks) of the same layers",
	},
}

// scale sizes a run. full is what BENCHMARK.json measures; small keeps
// the tier-1 test under a few seconds.
type scale struct {
	name        string
	ases, sites int
	sources     int
	syncPerDay  int // sync requests per day, distinct pairs
	uniqueBatch int // batches per day, distinct-pair workloads
	zipfBatch   int // batches per day, zipf workload
	// days is the fixed work of a run, per workload: every run of a
	// commit does the same days, so runs of different commits differ in
	// time, not in what they did. The full-scale counts were sized once,
	// on the commit that added the benchmark, so that the timed window
	// takes BENCHMARK.json's run_seconds on the 2-core sandbox.
	days map[string]int
	// servers is how many fresh deployments a run builds and measures
	// in turn: setup_s is the median of their set-up times, and the
	// days are split evenly between them, which spreads the window over
	// more wall time than it lasts (README, "Steadiness").
	servers      int
	driveDivisor int // layer drives run 1/driveDivisor of their full iteration counts
}

var scales = map[string]scale{
	"full": {name: "full", ases: 1000, sites: 30, sources: 8,
		syncPerDay: 1536, uniqueBatch: 40, zipfBatch: 80, servers: 3, driveDivisor: 1,
		days: map[string]int{"interactive": 15, "batch-unique": 18, "batch-zipf": 15, "batch-lossy": 21}},
	"small": {name: "small", ases: 150, sites: 8, sources: 3,
		syncPerDay: 150, uniqueBatch: 5, zipfBatch: 3, servers: 1, driveDivisor: 20,
		days: map[string]int{"interactive": 2, "batch-unique": 2, "batch-zipf": 2, "batch-lossy": 2}},
}

// request is one pre-marshalled client round trip.
type request struct {
	body  []byte
	user  int
	pairs []int32 // universe indices, job order
}

// generator turns the seed into days of requests. The server receives
// only what it produces.
type generator struct {
	wl    *workload
	sc    scale
	nsrc  int
	ndst  int
	rng   *rand.Rand
	zipf  *rand.Zipf
	ranks []int32 // zipf rank → universe index, fixed for the run
	perm  []int32 // scratch permutation of the universe
	// Pre-rendered JSON: one sync body and one batch pair fragment per
	// universe entry, so a day's bodies are concatenations.
	syncBody [][]byte
	pairFrag [][]byte
}

func newGenerator(wl *workload, sc scale, dep *deployment, seed int64) *generator {
	g := &generator{wl: wl, sc: sc, nsrc: len(dep.srcs), ndst: len(dep.dsts),
		rng: detrand.New(seed, "bench/workload/"+wl.name)}
	n := g.nsrc * g.ndst
	g.perm = make([]int32, n)
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	for p := 0; p < n; p++ {
		s, d := dep.srcs[p/g.ndst].String(), dep.dsts[p%g.ndst].String()
		if wl.sync {
			g.syncBody = append(g.syncBody, []byte(`{"src":"`+s+`","dsts":["`+d+`"]}`))
		} else {
			g.pairFrag = append(g.pairFrag, []byte(`{"src":"`+s+`","dst":"`+d+`"}`))
		}
	}
	if wl.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(n-1))
		// Which pairs are popular is a property of the universe, fixed
		// like the topology; the seed decides the draws.
		g.ranks = make([]int32, n)
		for i, p := range detrand.New(topologySeed, "bench/zipf-ranks").Perm(n) {
			g.ranks[i] = int32(p)
		}
	}
	return g
}

// sample moves k distinct seeded-random universe indices to the front
// of g.perm (a partial Fisher-Yates) and returns them.
func (g *generator) sample(k int) []int32 {
	if k > len(g.perm) {
		k = len(g.perm)
	}
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(len(g.perm)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
	return g.perm[:k]
}

// day builds the next day's requests.
func (g *generator) day() []request {
	if g.wl.sync {
		reqs := make([]request, 0, g.sc.syncPerDay)
		for _, p := range g.sample(g.sc.syncPerDay) {
			reqs = append(reqs, request{body: g.syncBody[p], pairs: []int32{p}})
		}
		return reqs
	}
	nb := g.sc.uniqueBatch
	var distinct []int32
	if g.wl.zipf {
		nb = g.sc.zipfBatch
	} else {
		distinct = g.sample(nb * g.wl.batch)
		nb = len(distinct) / g.wl.batch
	}
	reqs := make([]request, 0, nb)
	for b := 0; b < nb; b++ {
		pairs := make([]int32, g.wl.batch)
		body := make([]byte, 0, 48*g.wl.batch+16)
		body = append(body, `{"pairs":[`...)
		for j := range pairs {
			if g.wl.zipf {
				pairs[j] = g.ranks[g.zipf.Uint64()]
			} else {
				pairs[j] = distinct[b*g.wl.batch+j]
			}
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, g.pairFrag[pairs[j]]...)
		}
		body = append(body, `]}`...)
		reqs = append(reqs, request{body: body, user: b % g.wl.users, pairs: pairs})
	}
	return reqs
}

// jobsIn counts the jobs of a day.
func jobsIn(reqs []request) int {
	n := 0
	for i := range reqs {
		n += len(reqs[i].pairs)
	}
	return n
}
