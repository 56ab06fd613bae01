package core_test

// The differential for the silent direct probe's close: with no retry to
// spend, an RR stage whose direct probe drew silence ends there instead of
// re-asking the hop from a spoofed round. It prices the rule by sending the
// round the engine did not.

import (
	"context"
	"slices"
	"testing"

	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/fabric"
	"revtr/internal/netsim/ipv4"
)

// forwardFiltered reports whether an option packet from src to hop enters,
// on one of eight flows, an AS that drops transiting option packets
// (topology.AS.FiltersOptions), as the fabric's walk does.
func forwardFiltered(f *fabric.Fabric, src, hop ipv4.Addr) bool {
	h, ok := f.Topo.HostOf(src)
	if !ok {
		return false
	}
	for flow := uint64(0); flow < 8; flow++ {
		path := f.ForwardRouterPath(h.Router, hop, src, flow)
		for i := 1; i < len(path); i++ {
			as := f.Topo.Routers[path[i]].AS
			if as != f.Topo.Routers[path[i-1]].AS && f.Topo.ASes[as].FiltersOptions {
				return true
			}
		}
	}
	return false
}

// directStats is one row of the differential's table: the closes that had
// a round to send, the rounds not sent that drew a reply, and those whose
// hop the source's option packets reach — a reply there is a cost the
// rule's reason does not explain; and the rounds the atlas kept on the wire
// behind a silent direct probe, and those of them that drew a reply.
type directStats struct{ pairs, closed, answered, unexplained, kept, keptAnswered int }

// silentDirectDifferential measures pairs on eng, which must not retry, and
// every time a direct probe's delivery closed a stage that neither the
// cache's verdict nor the survey's silence had settled, sends the round not
// sent. A round the machine sent right behind a silent direct probe is one
// the atlas kept.
func silentDirectDifferential(eng *core.Engine, pairs []srcDst) directStats {
	st := directStats{pairs: len(pairs)}
	bg := context.Background()
	closes := observe(eng).Counter("engine_spoof_sweeps_unresponsive_total")
	for _, pr := range pairs {
		mm := eng.Begin(bg, pr.src, pr.dst)
		var silentHop ipv4.Addr // the last direct probe's, if it drew silence
		for p := mm.Next(); p != nil; p = mm.Next() {
			d := eng.ExecPending(mm.Context(), p)
			if isSpoofSweep(p) && !p.Hedges && p.Reqs[0].Dst == silentHop {
				st.kept++
				st.keptAnswered += btoi(slices.ContainsFunc(d.Batch.Replies, func(r measure.Reply) bool { return r.RR.Responded }))
			}
			silentHop = 0
			settled := true // only a direct probe's delivery closes a stage
			if isDirectRR(p) {
				_, settled = eng.Verdicts(p.Reqs[0].Dst)
				settled = settled || eng.Ingress.Silent(p.Reqs[0].Dst)
				if rep := d.Batch.Replies[0]; rep.Sent && !rep.RR.Responded {
					silentHop = p.Reqs[0].Dst
				}
			}
			before := closes.Value()
			mm.Deliver(d)
			if closes.Value() == before || settled {
				continue
			}
			hop := p.Reqs[0].Dst
			sent, heard, _ := sendUnsent(eng, pr.src.Agent, hop, p.Reqs[0].Seq)
			st.closed += btoi(sent)
			st.answered += btoi(heard)
			st.unexplained += btoi(heard && !forwardFiltered(eng.F, pr.src.Agent.Addr, hop))
		}
	}
	return st
}

// TestSilentDirectDifferential prices the silent direct probe's close
// (DESIGN "RR stage", row 9). The replies to a spoofed round come home to
// the source by the path the direct probe's reply would have taken, so the
// round can rescue only a hop the source's own option packets do not reach:
// one behind a transit AS that filters options on the forward path. Every
// close the test finds, it sends the round the engine did not, on the rule
// ledger's three clean worlds and the differentials' slice of the
// benchmark's; each round that draws a reply must be of that kind. Where the
// source's atlas saw a hop of the AS answer a spoofed ping and not its own,
// the rule keeps the round, and the test counts those.
func TestSilentDirectDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 1000-AS worlds")
	}
	t.Logf("%-10s %6s %6s %9s %12s | %5s %9s", "world", "pairs", "closed", "answered", "unexplained", "kept", "answered")
	report := func(name string, st directStats) {
		t.Logf("%-10s %6d %6d %9d %12d | %5d %9d", name, st.pairs, st.closed, st.answered, st.unexplained, st.kept, st.keptAnswered)
		if st.closed == 0 {
			t.Errorf("%s: the rule closed no stage with a round to send: the world exercises nothing", name)
		}
		if st.unexplained > 0 {
			t.Errorf("%s: %d rounds the rule kept off the wire drew a reply from a hop the source's option packets reach", name, st.unexplained)
		}
	}
	for _, col := range ledgerColumns {
		if !col.lossy {
			w := worldOf(col.seed, col.vintage)
			report(col.name, silentDirectDifferential(w.d.Engine(core.Revtr20Options()), w.wide()))
		}
	}
	d, pairs := benchSlice()
	report("bench", silentDirectDifferential(d.Engine(core.Revtr20Options()), pairs))
}
