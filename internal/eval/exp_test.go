package eval

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsRunAtSmallScale is the integration smoke test for the
// full harness: every registered experiment must run to completion at
// small scale and produce non-trivial output.
func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take ~30s combined")
	}
	s := SmallScale()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(context.Background(), s, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() < 40 {
				t.Fatalf("%s produced almost no output:\n%s", e.ID, buf.String())
			}
		})
	}
}

// TestFig5ShapesHold asserts the paper's qualitative results at small
// scale: revtr 2.0 uses far fewer probes than revtr 1.0, has higher
// AS-level accuracy, and gives up some coverage to get it.
func TestFig5ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig5 workload")
	}
	s := MediumScale()
	f := runFig5(context.Background(), s)
	r10 := f.byName["revtr1.0"]
	r20 := f.byName["revtr2.0"]

	if r20.counters.Total() >= r10.counters.Total() {
		t.Errorf("revtr2.0 probes (%d) not fewer than revtr1.0 (%d)",
			r20.counters.Total(), r10.counters.Total())
	}
	if r20.counters.TS != 0 || r20.counters.SpoofTS != 0 {
		t.Error("revtr2.0 sent Timestamp probes")
	}
	if r20.completed >= r10.completed {
		t.Errorf("revtr2.0 coverage (%d) not below revtr1.0 (%d): the accuracy trade is missing",
			r20.completed, r10.completed)
	}
	a10 := scoreAccuracy(f.d, r10)
	a20 := scoreAccuracy(f.d, r20)
	if a10.comparable > 10 && a20.comparable > 10 {
		// The paper's accuracy claim is about wrong paths (§4.4, Insight
		// 1.10: abort rather than return one), so that is the shape held:
		// revtr 2.0 returns a smaller share of wrong-AS paths. At this
		// scale the two exact-AS fractions sit within a path of each other
		// (153/185 against 242/293 when this was written) and which is
		// ahead turns on whether one more revtr 2.0 path completes, so
		// exact-AS is only held to not trail by more than one path; the
		// gap the paper reports shows at large scale (`revtr-eval -run
		// fig5a -scale large`: 85 % against 73 % exact, 2 % against 17 %
		// wrong).
		t.Logf("of comparable paths: revtr2.0 %d exact, %d wrong of %d; revtr1.0 %d exact, %d wrong of %d",
			a20.exactAS, a20.wrongAS, a20.comparable, a10.exactAS, a10.wrongAS, a10.comparable)
		w10 := float64(a10.wrongAS) / float64(a10.comparable)
		w20 := float64(a20.wrongAS) / float64(a20.comparable)
		if w20 >= w10 {
			t.Errorf("revtr2.0 wrong-AS %d/%d not below revtr1.0 %d/%d",
				a20.wrongAS, a20.comparable, a10.wrongAS, a10.comparable)
		}
		f10 := float64(a10.exactAS) / float64(a10.comparable)
		f20 := float64(a20.exactAS) / float64(a20.comparable)
		if f20 < f10-1/float64(a20.comparable) {
			t.Errorf("revtr2.0 exact-AS %d/%d more than one path below revtr1.0 %d/%d",
				a20.exactAS, a20.comparable, a10.exactAS, a10.comparable)
		}
	}
	// Latency: the ablation should be monotone from revtr1.0 to revtr2.0.
	if r20.durations.Quantile(0.5) >= r10.durations.Quantile(0.5) {
		t.Errorf("revtr2.0 median latency %.1fs not below revtr1.0 %.1fs",
			r20.durations.Quantile(0.5), r10.durations.Quantile(0.5))
	}
}

// TestVPSelectionShapesHold asserts §5.3: ingress-based selection tries
// far fewer VPs and reveals at least as much as the baselines.
func TestVPSelectionShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the VP-selection workload")
	}
	v := runVPSel(MediumScale())
	ing := v.tried["ingress (revtr2.0)"]
	sc := v.tried["revtr1.0 set-cover"]
	if ing.Quantile(0.5) > sc.Quantile(0.5) {
		t.Errorf("ingress median tried %.1f > set-cover %.1f", ing.Quantile(0.5), sc.Quantile(0.5))
	}
	fi := v.firstBatch["ingress (revtr2.0)"][3]
	fs := v.firstBatch["revtr1.0 set-cover"][3]
	if fi.Mean() < fs.Mean() {
		t.Errorf("ingress first-batch reveal %.2f < set-cover %.2f", fi.Mean(), fs.Mean())
	}
	opt := v.firstBatch["optimal"][3]
	if fi.Mean() > opt.Mean()+1e-9 {
		t.Errorf("ingress reveal %.2f exceeds optimal %.2f", fi.Mean(), opt.Mean())
	}
}

// TestTable2Direction asserts Q5's justification: intradomain symmetry
// holds more often than interdomain symmetry.
func TestTable2Direction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table2 study")
	}
	r := runTable2(MediumScale())
	intra := float64(r.intra.yes) / float64(max(1, r.intra.yes+r.intra.no))
	inter := float64(r.inter.yes) / float64(max(1, r.inter.yes+r.inter.no))
	t.Logf("intra=%.2f inter=%.2f", intra, inter)
	if intra <= inter {
		t.Errorf("intradomain symmetry (%.2f) not above interdomain (%.2f)", intra, inter)
	}
}

func TestExperimentOutputMentionsPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment")
	}
	e, _ := Find("fig9a")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), SmallScale(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "paper:") {
		t.Error("experiment output lacks the paper reference line")
	}
}

// TestVPSelIsSeedFunction: Fig 6 and Table 5 are a function of the scale
// and its seed. Two fresh deployments — the caches emptied before each —
// probe every technique's plans through probers of their own, and every
// distribution behind a row holds the same samples: a probe's packet is its
// content, so each probe takes the same way through the same per-packet
// balancers. Small scale in the medium world — 1000 ASes, 30 sites.
func TestVPSelIsSeedFunction(t *testing.T) {
	s := SmallScale()
	s.ASes, s.Sites = 1000, 30
	var rows [2]string
	for i := range rows {
		depMu.Lock()
		clear(depCache)
		depMu.Unlock()
		vpselMu.Lock()
		clear(vpselCache)
		vpselMu.Unlock()
		v := runVPSel(s)
		if v.nPrefixes == 0 || v.found["ingress (revtr2.0)"] == 0 {
			t.Fatalf("%d prefixes, %d found by the ingress plan: the test compares nothing", v.nPrefixes, v.found["ingress (revtr2.0)"])
		}
		var sb strings.Builder
		fmt.Fprintln(&sb, v.found, runHeuristicAblation(s, v))
		for _, name := range []string{"ingress (revtr2.0)", "revtr1.0 set-cover", "global", "optimal"} {
			if d := v.tried[name]; d != nil {
				fmt.Fprintln(&sb, name, "tried", sorted(d))
			}
			for _, bs := range []int{1, 3, 5} {
				if d := v.firstBatch[name][bs]; d != nil {
					fmt.Fprintln(&sb, name, "first batch of", bs, sorted(d))
				}
			}
		}
		rows[i] = sb.String()
	}
	if rows[0] != rows[1] {
		t.Errorf("two runs of one seed differ:\n%s\n%s", rows[0], rows[1])
	}
}

// sorted returns d's samples in ascending order.
func sorted(d *Dist) []float64 {
	xs := slices.Clone(d.xs)
	slices.Sort(xs)
	return xs
}

// TestAsymRowsAreSeedFunction: Fig 8b and Table 7 rank the same ASes in the
// same order on two fresh small-scale deployments. ASes of equal
// prevalence go by ASN, not in the order a map hands them out; the
// ranking holds such ties, or the test compares nothing.
func TestAsymRowsAreSeedFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the campaign twice")
	}
	s := SmallScale()
	var rows [2][]asymRow
	for i := range rows {
		depMu.Lock()
		clear(depCache)
		depMu.Unlock()
		campMu.Lock()
		clear(campCache)
		campMu.Unlock()
		rows[i] = asymRows(runAsym(context.Background(), s), runCampaign(context.Background(), s))
	}
	tied := false
	for i := 1; i < len(rows[0]) && i < 15; i++ {
		tied = tied || rows[0][i].prev == rows[0][i-1].prev
	}
	if !tied {
		t.Fatalf("no two of the top %d ASes tie: the test compares nothing", min(15, len(rows[0])))
	}
	if !slices.Equal(rows[0], rows[1]) {
		t.Errorf("two runs of one seed rank the ASes differently:\n%v\n%v", rows[0], rows[1])
	}
}
