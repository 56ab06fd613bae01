package core

import (
	"revtr/internal/obs"
)

// Metrics is the engine's observability surface: per-stage outcome
// counters matching the Fig 2 control flow, cache accounting, and the
// latency histograms the §5.2.4 throughput analysis is built from. The
// zero value is the off switch: every counter is nil, and obs's nil
// receivers are no-ops, so the engine holds a Metrics by value and
// records into it without asking whether a registry was attached.
// Engines built from the same obs.Registry share the underlying metrics
// (counters are atomic), which is how campaign workers aggregate into
// one set of numbers. The fields are written once, by NewMetrics; the
// machine's transition helpers (machine.go) and the knowledge table are
// the only readers.
type Metrics struct {
	// stage counts, by revealing technique, each time a stage produced
	// the next reverse hop(s): atlas traceroute intersections (Q1/Q2),
	// direct and spoofed Record Route revelations, Timestamp adjacency
	// confirmations. Destination, source and symmetry have no slot — a
	// symmetry assumption is counted when it is taken (assumeSym), even
	// if the hop it yields is then rejected as a revisit.
	stage [TechSource + 1]*obs.Counter
	// symmetry counts symmetry assumptions taken; symInterAS those of
	// them that were interdomain (SymAlways only).
	symmetry   *obs.Counter
	symInterAS *obs.Counter

	// Outcome counters. cancelled counts measurements cut short by their
	// context (Result.Cancelled): they end StatusFailed but are accounted
	// here instead of failed so partial runs do not skew the
	// technique-coverage statistics.
	complete  *obs.Counter
	aborted   *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter

	// spoofBatches counts spoofed batches delivered; spoofBatchTimeouts
	// those short of a reply, which waited out SpoofTimeoutUS (the others
	// cost their slowest round trip). Both move where Deliver books one.
	spoofBatches       *obs.Counter
	spoofBatchTimeouts *obs.Counter
	// spoofSweepsSilent counts spoofed sweeps ended at a batch no probe
	// of which was answered, after a direct probe that was not either.
	// cacheRRNegativeHits counts RR stages answered by an empty cache
	// entry (a stage measured earlier that revealed nothing); they are
	// RR cache hits too.
	spoofSweepsSilent   *obs.Counter
	cacheRRNegativeHits *obs.Counter
	// traceroutes counts symmetry-stage traceroutes that put packets on
	// the wire and traceroutePackets the packets; tracerouteSweeps those
	// of them that ran the classic 1…N sweep: probing began at TTL 1 (no
	// atlas to take a start from, a hop adopted one or two hops out).
	traceroutes       *obs.Counter
	traceroutePackets *obs.Counter
	tracerouteSweeps  *obs.Counter
	// tracerouteStarts counts, by symmetry start row, the traceroutes it
	// chose: chain steps (in hand or not), memo and distance starts.
	tracerouteStarts [symSweep + 1]*obs.Counter
	// directRRSkipped counts RR stages whose direct probe Machine.distance
	// kept off the wire.
	directRRSkipped *obs.Counter
	// rrDeaf counts RR stages not opened because the source's atlas heard no
	// RR reply from the cursor's AS (atlas.RRDeaf), then those because the
	// source's own silent rounds did (factDeaf): by rrStage.deafBy.
	rrDeaf [2]*obs.Counter

	// vpFailover counts probes redirected to another vantage point after
	// the planned VP was observed inside a blackout window. deadVPHits
	// counts plan slots skipped because the knowledge table's dead marks
	// already knew the VP was out — failovers that cost nothing.
	vpFailover *obs.Counter
	deadVPHits *obs.Counter
	// Saved by the per-hop verdicts: plan slots skipped (VP out of
	// range) and RR stages closed at a silent direct probe (the hop mute,
	// by the table or the survey, or the probe's own silence at no retries).
	spoofVPsOutOfRange      *obs.Counter
	spoofSweepsUnresponsive *obs.Counter
	// Read off the reach memo (factReach): rounds whose lead it changed
	// (byReach) and hedges it held back that the survey would have sent
	// (couldRevealMore).
	spoofReachLeads *obs.Counter
	spoofReachHeld  *obs.Counter
	// Spent from the retry budget (probe.RetryPolicy): rounds whose lead drew
	// no reply, their hedges cut to the budget (budgetHedges), and windows
	// above an RR-silent hop that gave up short of measure.SilentRun silent
	// TTLs without the target's echo reply (symStage.next).
	spoofSilentLeads       *obs.Counter
	tracerouteShortGiveUps *obs.Counter

	// Segment-store accounting (Doubletree memoization,
	// Options.SegmentStore). segmentHits counts lookups that returned a
	// full fresh chain; segmentSplices counts the hits actually spliced
	// into a path (a hit is rejected when the chain would revisit a hop
	// this measurement already adopted). The store itself counts
	// engine_segment_stale_evictions_total via segments.Store.SetObs.
	segmentHits    *obs.Counter
	segmentSplices *obs.Counter

	// Knowledge table accounting (Insight 1.4 reuse): hits and misses of RR
	// results and traceroutes by factKind; evictions and entries of every
	// kind, dead-VP marks included.
	cacheHits      [2]*obs.Counter
	cacheMisses    [2]*obs.Counter
	cacheEvictions *obs.Counter
	cacheSize      *obs.Gauge

	// virtualUS observes per-measurement virtual duration (spoofed-batch
	// waits included); wallUS observes real wall-clock time from Begin
	// to the terminal transition.
	virtualUS *obs.Histogram
	wallUS    *obs.Histogram
}

// NewMetrics registers (or re-attaches to) the engine metric set on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		symmetry:   reg.Counter("engine_stage_symmetry_total"),
		symInterAS: reg.Counter("engine_symmetry_interdomain_total"),

		complete:  reg.Counter("engine_measure_complete_total"),
		aborted:   reg.Counter("engine_measure_aborted_total"),
		failed:    reg.Counter("engine_measure_failed_total"),
		cancelled: reg.Counter("engine_measure_cancelled_total"),

		spoofBatches:            reg.Counter("engine_spoof_batches_total"),
		spoofBatchTimeouts:      reg.Counter("engine_spoof_batch_timeouts_total"),
		spoofSweepsSilent:       reg.Counter("engine_spoof_sweeps_silent_total"),
		cacheRRNegativeHits:     reg.Counter("engine_cache_rr_negative_hits_total"),
		traceroutes:             reg.Counter("engine_traceroutes_total"),
		traceroutePackets:       reg.Counter("engine_traceroute_packets_total"),
		tracerouteSweeps:        reg.Counter("engine_traceroute_sweeps_total"),
		directRRSkipped:         reg.Counter("engine_rr_direct_skipped_total"),
		vpFailover:              reg.Counter("vp_failover_total"),
		deadVPHits:              reg.Counter("engine_dead_vp_hits_total"),
		spoofVPsOutOfRange:      reg.Counter("engine_spoof_vps_out_of_range_total"),
		spoofSweepsUnresponsive: reg.Counter("engine_spoof_sweeps_unresponsive_total"),
		spoofReachLeads:         reg.Counter("engine_spoof_reach_leads_total"),
		spoofReachHeld:          reg.Counter("engine_spoof_reach_held_total"),
		spoofSilentLeads:        reg.Counter("engine_spoof_silent_leads_total"),
		tracerouteShortGiveUps:  reg.Counter("engine_traceroute_short_giveups_total"),

		segmentHits:    reg.Counter("engine_segment_hits_total"),
		segmentSplices: reg.Counter("engine_segment_splices_total"),

		cacheEvictions: reg.Counter("engine_cache_evictions_total"),
		cacheSize:      reg.Gauge("engine_cache_entries"),

		virtualUS: reg.Histogram("engine_measure_virtual_us", nil),
		wallUS:    reg.Histogram("engine_measure_wall_us", nil),
	}
	m.tracerouteStarts[symChain] = reg.Counter("engine_traceroute_chain_steps_total")
	m.tracerouteStarts[symMemo] = reg.Counter("engine_traceroute_memo_starts_total")
	m.tracerouteStarts[symDistance] = reg.Counter("engine_traceroute_distance_starts_total")
	m.rrDeaf[0] = reg.Counter("engine_rr_deaf_skipped_total")
	m.rrDeaf[1] = reg.Counter("engine_rr_deaf_learned_total")
	m.stage[TechTrIntersect] = reg.Counter("engine_stage_atlas_intersect_total")
	m.stage[TechRR] = reg.Counter("engine_stage_direct_rr_total")
	m.stage[TechSpoofRR] = reg.Counter("engine_stage_spoofed_rr_total")
	m.stage[TechTS] = reg.Counter("engine_stage_timestamp_total")
	m.cacheHits[factRR] = reg.Counter("engine_cache_rr_hits_total")
	m.cacheMisses[factRR] = reg.Counter("engine_cache_rr_misses_total")
	m.cacheHits[factTR] = reg.Counter("engine_cache_tr_hits_total")
	m.cacheMisses[factTR] = reg.Counter("engine_cache_tr_misses_total")
	return m
}

// lookup records one cache lookup of kind and the expired entry it may
// have dropped.
func (m *Metrics) lookup(kind factKind, hit bool, expired int) {
	if hit {
		m.cacheHits[kind].Inc()
	} else {
		m.cacheMisses[kind].Inc()
	}
	m.evicted(expired)
}

// evicted records n cache evictions; the usual n == 0 leaves the
// counter, which every engine on the registry shares, untouched.
func (m *Metrics) evicted(n int) {
	if n > 0 {
		m.cacheEvictions.Add(uint64(n))
	}
}
