# Build / test entry points. `make ci` is what every PR must pass: gofmt,
# vet and the repo's own static-analysis suite (revtr-lint: determinism,
# context, metrics, lock, and concurrency contracts), the -short suite,
# plus the full suite under the race detector (the service and campaign
# layers are concurrent; -race is load-bearing, not optional) — which
# includes the chaos suites under deterministic fault injection and the
# soak — and a smoke pass over the fuzz targets.

GO ?= go

.PHONY: build test short fmt vet lint race ci bench benchcheck benchmod chaos fuzz soak cover loc docsize

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# fmt fails when gofmt would change any Go file; the analyzers' testdata
# fixtures are left out (they are inputs, laid out for their want
# comments).
fmt:
	@out=$$(find . -name '*.go' ! -path '*/testdata/*' | xargs gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the repo's go/analysis-style suite (cmd/revtr-lint): seven
# analyzers of one shape over one module-wide program. Judging a package
# at a time: detpath (wall clock / global rand / unsorted map ranges),
# ctxflow (context threading), obsnames (metric naming), locksafe
# (mutex hygiene, no TryLock). Over the flow layer's CFG + call graph:
# lockorder (lock-order cycles), suspendsafe (locks/tickets held across
# suspension points), spawnbound (goroutine lifetime bounds). Any
# finding is a CI failure; see DESIGN.md "Determinism contract and
# static enforcement" and "Concurrency contract" for the rules and
# //revtr: escape hatches. revtr-lint takes package patterns, no flags.
lint:
	$(GO) run ./cmd/revtr-lint ./...

# -shuffle=on randomizes test order: the suites must not depend on
# package-level execution order (chaos plans and fabrics are built per
# test, so shuffling is free coverage). Never -short: this is the run of
# every Chaos and TestSoak test in `make ci`, so `chaos` and `soak`
# below are not prerequisites of `ci` — they would run the same tests a
# second time (measured: 39 s + 10 s). -timeout 15m: under the detector
# internal/core, the slowest package, takes 525-590 s on a 2-core x86-64
# machine, with the count gate and the rule ledger's three worlds in it (its
# tests share one build of each world; 680 s before they did); past 600 s
# go test's default timeout would fail it unfinished.
race:
	$(GO) test -race -shuffle=on -timeout 15m ./...

ci: fmt vet lint short race bench benchcheck benchmod fuzz cover loc docsize

# loc prints the number ROADMAP's consolidation round tracks: non-test Go
# lines per package and in total, leaving out bench/ (a module of its
# own) and the lint analyzers' testdata fixtures. CHANGES.md entries
# quote this instead of hand counts; `make ci` ends with it, and fails
# when the total is above LOC_CEILING — the total the last PR landed at.
# A PR that adds lines says why and raises it; one that removes lines
# lowers it to where it lands.
LOC_CEILING = 22090
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs wc -l | \
		awk -v ceiling=$(LOC_CEILING) '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t; \
				if (t > ceiling) { printf "non-test lines above LOC_CEILING (%d)\n", ceiling; exit 1 } }'

# docsize prints the size in bytes of the documents every change reads and
# fails when one is above its DOC_CEILING entry (file:bytes) — the size the
# last PR landed it at. A PR that grows a file says why and raises its
# entry; one that cuts it lowers the entry to where it lands. bench/'s
# README is left out: bench/ changes only with the benchmark.
DOC_CEILING = DESIGN.md:113769 EXPERIMENTS.md:97411 CHANGES.md:45057
docsize:
	@fail=0; for e in $(DOC_CEILING); do f=$${e%%:*}; ceiling=$${e##*:}; n=$$(wc -c < $$f); \
		printf "%7d %s (DOC_CEILING %d)\n" $$n $$f $$ceiling; \
		if [ $$n -gt $$ceiling ]; then echo "$$f above its DOC_CEILING"; fail=1; fi; \
	done; exit $$fail

# cover enforces a coverage floor on the segment store and on the TTL
# cache under it: the store is shared mutable state spliced into other
# measurements' results, so its chain-walk edge cases and the cache's
# eviction and expiry edge cases must all stay exercised. The
# measurement archive is held to it too: what it leaves uncovered is
# I/O error arms, and every recovery rule must stay exercised. So are
# the batch scheduler and the stream broker, the two layers every batch
# job crosses: their caps (remembered batches, the day cache, a full
# ring at termination) are the paths a long-running server reaches and
# a short test does not. So is the probe pool every measurement crosses:
# its retry arms (a VP dark between attempts, each kind's late answer)
# are the recovery path only a faulty fabric reaches. So is the engine
# itself: its knowledge table holds eight kinds of fact, four of them (the
# per-hop verdicts, the hops heard answering, the reach memo, dead vantage
# points) shared across sources, and one, an AS's deafness to a source,
# that merges witnesses. So is the ingress survey: every
# measurement's RR stage reads its plans and its silent destinations, and
# a second survey must replace the first one's answers whole. So is the
# atlas: every measurement's intersections read its indexes, entries copy
# suffixes out of one another, and a refresh's removals must hand shared
# hops on to the entries that survive. So are the probe codec and the
# traceroute under every measurement: every traceroute packet is decided
# there — where a window starts, climbs and walks down, which TTLs it
# reads in hand — and a packet sent twice is a packet the budget pays for
# twice. The lint
# framework is held to the same floor: every concurrency gate rests on the one
# dataflow in flow, which its own tests barely touch (16 %) — it is
# exercised by the analyzers' fixture suites, so it is measured across
# the whole lint tree's tests.
COVER_PKGS = internal/core internal/core/segments internal/ttlcache internal/store internal/sched internal/stream internal/probe internal/ingress internal/atlas internal/measure
LINT_COVER_PKGS = ./internal/lint/flow,./internal/lint/directive,./internal/lint/analysis,./internal/lint/loader
COVER_FLOOR = awk -v pkg=$$pkg '/^total:/ { \
	pct = $$3 + 0; printf "%s coverage: %s (floor 90%%)\n", pkg, $$3; \
	if (pct < 90) { print "coverage below floor"; exit 1 } }'
cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=/tmp/revtr.cover ./$$pkg/ || exit 1; \
		$(GO) tool cover -func=/tmp/revtr.cover | $(COVER_FLOOR) || exit 1; \
	done
	@pkg=internal/lint-framework; \
		$(GO) test -coverprofile=/tmp/revtr.cover -coverpkg=$(LINT_COVER_PKGS) ./internal/lint/... || exit 1; \
		$(GO) tool cover -func=/tmp/revtr.cover | $(COVER_FLOOR)

# benchcheck is the regression gate on what is deterministic: exact probe
# counts, spoofed rounds, virtual time and outcomes of fixed slices of the
# benchmark's world and of each knowledge rule's row on three worlds
# (counts_test.go, internal/core/counts_test.go), what the silent direct
# probe's rule costs under loss in packets per completed revtr (it reuses
# the ledger's worlds: internal/core/silent_direct_test.go), and the allocation
# ceilings of one engine measurement (cold, warm, and cold with a sink
# attached), one sched submit→terminal, one store append and one stream
# publish (in count, and in bytes once the replay window is full:
# allocs_test.go), and of one event the NDJSON pump writes
# (internal/service/pump_allocs_test.go). Without -race: the ceilings are
# not built under the detector. Timing stays with the registered benchmark
# and its alternating pairs.
benchcheck:
	$(GO) test -run 'AllocCeiling|TestProbeCountGate' -count=1 . ./internal/service/
	$(GO) test -run 'TestProbeCountGate|TestRuleLedger|TestSilentDirectDifferential' -count=1 ./internal/core/

# benchmod compiles and smoke-tests bench/, the end-to-end benchmark. It
# is a module of its own (revtr/bench, replace revtr => ../), so the
# ./... targets above never build it against internal/*; this is where a
# change that breaks the benchmark's compile surface fails.
benchmod:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# chaos runs the fault-injection suites under -race, on their own, for a
# focused local run (`make race` covers them in ci): engine and campaign
# measured over lossy links, rate-limited routers, flapping routes, and
# blacked-out vantage points. The tests bake in 3 fault seeds x 2 loss
# levels each, so every run sees the same faults; -count=1 only defeats
# the test cache.
chaos:
	$(GO) test -race -run Chaos -count=1 ./internal/core/ ./internal/campaign/

# soak pushes a 1000-job duplicate-heavy batch workload from three
# users through a live HTTP server and checks the scheduler's books:
# every job lands in exactly one terminal state, shed + coalesced +
# done + failed balances the submission total, the metrics agree with
# the per-job ledger, and nobody overdraws their daily quota.
# TestSoakStream reruns the workload with the full streaming surface
# attached — per-batch followers, firehose subscribers, one permanently
# stalled subscriber — and checks event/ledger conservation. A focused
# local run; `make race` covers both in ci.
soak:
	$(GO) test -race -run 'TestSoak' -count=1 ./internal/service/

# fuzz gives every fuzz target in the tree a short budget: a smoke pass
# over the parser/codec fuzzers, not a soak (lengthen locally with
# FUZZTIME). The engine's target names itself to -run as well, so the
# rest of internal/core's suite is not run again under instrumentation.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzParsePlan -fuzztime $(FUZZTIME) ./internal/netsim/faults/
	$(GO) test -fuzz FuzzSpecCodec -fuzztime $(FUZZTIME) ./internal/measure/
	$(GO) test -fuzz FuzzTracerouteStart -fuzztime $(FUZZTIME) ./internal/measure/
	$(GO) test -fuzz FuzzSegmentStore -fuzztime $(FUZZTIME) ./internal/core/segments/
	$(GO) test -run FuzzStoreRecover -fuzz FuzzStoreRecover -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run FuzzExtractReverse -fuzz FuzzExtractReverse -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz FuzzHeaderDecode -fuzztime $(FUZZTIME) ./internal/netsim/ipv4/
	$(GO) test -fuzz FuzzICMPDecode -fuzztime $(FUZZTIME) ./internal/netsim/ipv4/
	$(GO) test -fuzz FuzzStampRecordRoute -fuzztime $(FUZZTIME) ./internal/netsim/ipv4/

# bench in CI runs every benchmark once (-benchtime 1x): a smoke test
# that the benchmarks still compile and run, not a performance gate. It
# also regenerates BENCH_engine.json (the checked-in engine benchmark
# corpus — measurements/s at 1..10k in-flight, suspended-machine
# footprint) and BENCH_fabric.json (ns per hop walked, allocs and bytes
# per injected packet, BGP-tree hit ratio, at GOMAXPROCS 1 and 2) so the
# numbers track the code; commit the refreshed files when they move
# materially.
bench:
	BENCH_ENGINE_JSON=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteEngineBenchJSON -count=1 ./internal/core/
	BENCH_SEGMENTS_JSON=$(CURDIR)/BENCH_segments.json $(GO) test -run TestWriteSegmentsBenchJSON -count=1 ./internal/core/
	BENCH_FABRIC_JSON=$(CURDIR)/BENCH_fabric.json $(GO) test -run TestWriteFabricBenchJSON -count=1 .
	$(GO) test -bench . -benchtime 1x -benchmem ./...
