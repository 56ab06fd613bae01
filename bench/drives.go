package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/probe"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

// Layer drives: each calls one layer's public functions directly, for
// well under a second, with inputs taken from the workload's own pairs,
// and reports a unit cost. They run after both windows, on the same
// deployment (fault plan and retry policy included), so a drive and the
// served run exercise the same code with the same data.

// timeOps runs fn once and returns nanoseconds per op.
func timeOps(ops int, fn func()) float64 {
	start := now()
	fn()
	return float64(sinceNS(start)) / float64(max(ops, 1))
}

// mallocs returns the process's cumulative allocation count; drives run
// alone, so a delta around a loop is that loop's.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runDrives measures every layer's unit costs. sources are the
// registered sources with their atlases, as the traced backend captured
// them at registration.
func runDrives(ctx context.Context, dep *deployment, sc scale, gen *generator, sources map[ipv4.Addr]core.Source, dir string) (map[string]float64, error) {
	out := make(map[string]float64)
	n := func(full int) int { return max(full/sc.driveDivisor, 8) }
	pair := func(p int32) (ipv4.Addr, ipv4.Addr) {
		return dep.srcs[int(p)/len(dep.dsts)], dep.dsts[int(p)%len(dep.dsts)]
	}

	// sched: Submit → terminal with a no-op ExecAsync.
	jobs := gen.sample(n(10000))
	specs := make([]sched.JobSpec, len(jobs))
	for i, p := range jobs {
		specs[i].Src, specs[i].Dst = pair(p)
	}
	sctx, stopSched := context.WithCancel(ctx)
	s := sched.New(nil, sched.Options{QueueCap: len(specs),
		ExecAsync: func(_ context.Context, _ sched.JobRef, done func(any, error)) { done(nil, nil) }})
	s.Start(sctx)
	var schedErr error
	out["sched.drive_ns_per_job"] = timeOps(len(specs), func() {
		st, err := s.Submit(sctx, "drive", specs)
		if err == nil {
			_, err = s.Wait(sctx, st.ID)
		}
		schedErr = err
	})
	stopSched()
	if err := s.Drain(ctx); err != nil || schedErr != nil {
		return nil, fmt.Errorf("sched drive: submit/wait %v, drain %v", schedErr, err)
	}

	// core: sequential blocking measurements, caches cold.
	dep.d.Clock.Advance(dayUS)
	pairs := append([]int32(nil), gen.sample(n(512))...)
	results := make([]*core.Result, 0, len(pairs))
	out["core.drive_us_per_revtr"] = timeOps(len(pairs), func() {
		for _, p := range pairs {
			src, dst := pair(p)
			results = append(results, dep.backend.Engine.MeasureReverse(ctx, sources[src], dst))
		}
	}) / 1e3

	// segments: publish each measured path as one segment, look it up.
	type published struct {
		src  ipv4.Addr
		segs []segments.PathSeg
	}
	segs := make([]published, 0, len(results))
	for _, r := range results {
		if r.Status != core.StatusComplete || len(r.Hops) < 2 {
			continue
		}
		hops := make([]segments.Hop, 0, len(r.Hops)-1)
		for _, h := range r.Hops[1:] {
			hops = append(hops, segments.Hop{Addr: h.Addr, Tech: uint8(h.Tech)})
		}
		segs = append(segs, published{r.Src, []segments.PathSeg{{Anchor: r.Dst, Hops: hops}}})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("segments drive: none of %d drive measurements completed", len(results))
	}
	st := segments.New(segments.Options{})
	nowUS := dep.d.Clock.Now()
	rounds := max(n(20000)/len(segs), 1)
	out["segments.drive_publish_ns"] = timeOps(rounds*len(segs), func() {
		for r := 0; r < rounds; r++ {
			for _, sg := range segs {
				st.Publish(sg.src, sg.segs, nowUS)
			}
		}
	})
	out["segments.drive_lookup_ns"] = timeOps(rounds*len(segs), func() {
		for r := 0; r < rounds; r++ {
			for _, sg := range segs {
				st.Lookup(sg.src, sg.segs[0].Anchor, nowUS)
			}
		}
	})

	// What the engine probes while it measures a path: the hops of that
	// path, from the source directly and from VP sites spoofing as the
	// source. Targets follow the drive measurements in order, so the
	// routing cache sees the locality it sees in service.
	type target struct {
		from measure.Agent
		hop  ipv4.Addr
		next ipv4.Addr
		ttl  uint8
	}
	var targets []target
	for _, r := range results {
		for i, h := range r.Hops {
			if h.Addr.IsZero() || h.Addr.IsPrivate() {
				continue
			}
			targets = append(targets, target{from: sources[r.Src].Agent, hop: h.Addr,
				next: r.Hops[min(i+1, len(r.Hops)-1)].Addr, ttl: uint8(min(len(r.Hops)-i, 30))})
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("probe drive: %d drive measurements revealed no probeable hop", len(results))
	}
	sites := dep.d.SiteAgents

	// probe: direct and spoofed RR pings as blocking batches of 1 and 3
	// (inline), 32 (pooled), and as async batches of 3.
	reqs := make([]probe.Request, n(9600))
	for i := range reqs {
		t := targets[i%len(targets)]
		reqs[i] = probe.Request{Kind: measure.KindRR, VP: t.from, Dst: t.hop, Seq: uint64(i)}
		if i%2 == 1 {
			reqs[i].Kind, reqs[i].VP, reqs[i].Src = measure.KindSpoofedRR, sites[i%len(sites)], t.from.Addr
		}
	}
	pool := dep.d.Pool
	for _, b := range []int{1, 3, 32} {
		out[fmt.Sprintf("probe.drive_do_ns_per_req.b%d", b)] = timeOps(len(reqs)/b*b, func() {
			for i := 0; i+b <= len(reqs); i += b {
				pool.Do(ctx, reqs[i:i+b])
			}
		})
	}
	out["probe.drive_go_ns_per_req"] = timeOps(len(reqs)/3*3, func() {
		var wg sync.WaitGroup
		for i := 0; i+3 <= len(reqs); i += 3 {
			wg.Add(1)
			pool.Go(ctx, reqs[i:i+3], pool.Retry(), func(probe.Batch) { wg.Done() })
		}
		wg.Wait()
	})

	// measure: the per-probe Spec → packet → Reply codec, by probe kind,
	// from the source toward each hop.
	fab := dep.d.Fabric
	kinds := []struct {
		name string
		kind measure.Kind
	}{{"ping", measure.KindPing}, {"rr", measure.KindRR}, {"ts", measure.KindTS}, {"tr", measure.KindTraceroutePkt}}
	issues := n(4000)
	m0 := mallocs()
	for _, k := range kinds {
		out["measure.drive_issue_ns."+k.name] = timeOps(issues, func() {
			for i := 0; i < issues; i++ {
				t := targets[i%len(targets)]
				sp := measure.Spec{Kind: k.kind, VP: t.from, Dst: t.hop, TTL: t.ttl, Seq: uint64(i)}
				if k.kind == measure.KindTS {
					sp.Prespec = []ipv4.Addr{t.hop, t.next}
				}
				measure.Issue(fab, sp, nowUS)
			}
		})
	}
	out["measure.drive_issue_allocs"] = float64(mallocs()-m0) / float64(issues*len(kinds))

	// fabric: bare packet walks, echo requests without options.
	pkts := make([][]byte, n(4000))
	for i := range pkts {
		t := targets[i%len(targets)]
		pkts[i] = ipv4.BuildEchoRequest(t.from.Addr, t.hop, uint16(i), 1, 64, 0, nil)
	}
	hops0, m0 := fab.HopsForwarded(), mallocs()
	injectNS := timeOps(1, func() {
		for i, pkt := range pkts {
			fab.Inject(targets[i%len(targets)].from.Router, pkt, nowUS, uint64(i), uint64(i))
		}
	})
	out["fabric.drive_inject_allocs_per_pkt"] = float64(mallocs()-m0) / float64(len(pkts))
	out["fabric.drive_inject_ns_per_hop"] = injectNS / float64(max(fab.HopsForwarded()-hops0, 1))

	// store: durable appends (fsync off, as served) and reads by ID.
	sdir := dir + "/drive-store"
	log, err := store.Open(sdir, store.Options{MaxRecords: 65536})
	if err != nil {
		return nil, fmt.Errorf("store drive: %w", err)
	}
	recs := make([]*service.Measurement, len(results))
	for i, r := range results {
		m := &service.Measurement{Src: r.Src.String(), Dst: r.Dst.String(), User: "drive",
			Status: r.Status.String(), DurationUS: r.DurationUS, Probes: r.Probes.Total()}
		for _, h := range r.Hops {
			m.Hops = append(m.Hops, service.MeasuredHop{Addr: h.Addr.String(), Technique: h.Tech.String()})
		}
		recs[i] = m
	}
	appends := n(4000)
	var appendErr error
	out["store.drive_append_us"] = timeOps(appends, func() {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(func(id uint64) any { m := recs[i%len(recs)]; m.ID = int(id); return m }); err != nil {
				appendErr = err
			}
		}
	}) / 1e3
	out["store.drive_get_us"] = timeOps(appends, func() {
		var m service.Measurement
		for i := 0; i < appends; i++ {
			if ok, err := log.Get(uint64((i*7919)%appends), &m); err != nil || !ok {
				appendErr = fmt.Errorf("get: ok=%v err=%v", ok, err)
			}
		}
	}) / 1e3
	closeErr := log.Close()
	_ = os.RemoveAll(sdir)
	if appendErr != nil || closeErr != nil {
		return nil, fmt.Errorf("store drive: %v (close: %v)", appendErr, closeErr)
	}

	// stream: publish onto one topic with 0, 1 and 100 subscribers that
	// keep up (rings are drained, untimed, before they can overflow).
	for _, k := range []int{0, 1, 100} {
		br := stream.New(stream.Options{MaxSubs: 128})
		subs := make([]*stream.Sub, k)
		for i := range subs {
			sub, err := br.Subscribe("drive", stream.SubOptions{AfterID: -1})
			if err != nil {
				return nil, fmt.Errorf("stream drive: %w", err)
			}
			subs[i] = sub
		}
		ev := stream.Event{Kind: stream.KindHop, Batch: "drive", Hop: "10.0.0.1", Tech: "rr", Seq: 1}
		const burst = 128 // half the default subscriber ring
		var total int64
		pubs := n(12800) / burst * burst
		for done := 0; done < max(pubs, burst); done += burst {
			start := now()
			for i := 0; i < burst; i++ {
				br.Publish("drive", ev)
			}
			total += sinceNS(start)
			for _, sub := range subs {
				for {
					if _, ok, err := sub.TryNext(); !ok || err != nil {
						break
					}
				}
			}
		}
		out[fmt.Sprintf("stream.drive_publish_ns.sub%d", k)] = float64(total) / float64(max(pubs, burst))
		br.Shutdown()
	}
	return out, nil
}
