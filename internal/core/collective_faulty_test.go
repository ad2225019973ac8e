package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

func TestRecommendCollectiveUnderFaultsCleanReduces(t *testing.T) {
	p := perfmodel.Generic()
	for _, ranks := range []int{4, 16, 64} {
		for _, n := range []int64{1 << 12, 1 << 20, 1 << 24} {
			for _, goal := range []Goal{GoalBalanced, GoalFastest} {
				q := Query{Bytes: n, Profile: p, Ranks: ranks}
				clean := recommend(t, q, goal)
				q.Faults = memsim.FaultProfile{}
				if got := recommend(t, q, goal); got != clean {
					t.Fatalf("ranks=%d n=%d goal=%v: clean fault profile diverged: %+v vs %+v", ranks, n, goal, got, clean)
				}
			}
		}
	}
}

func TestPriceCollectiveUnderFaults(t *testing.T) {
	p := perfmodel.Generic()
	fp := lossy(0.02)
	m := price(t, Query{Bytes: 1 << 24, Profile: p, Ranks: 16, Faults: fp})
	if m.Depth != 4 {
		t.Fatalf("16-rank tree priced depth %d", m.Depth)
	}
	if m.Repair <= 1 {
		t.Fatalf("16 MiB hop priced %d chunks", m.Repair)
	}
	if m.Faulty[Sendv] <= m.Clean[Sendv] {
		t.Fatal("loss did not inflate the typed collective")
	}
	if m.RingClean <= 0 || m.Faulty[TypedPipelined] <= m.RingClean {
		t.Fatalf("ring not priced under loss: clean %g faulty %g", m.RingClean, m.Faulty[TypedPipelined])
	}
	if m.DeliveryProb <= 0 || m.DeliveryProb >= 1 || m.RingDeliveryProb <= 0 || m.RingDeliveryProb >= 1 {
		t.Fatalf("delivery probs %g / %g", m.DeliveryProb, m.RingDeliveryProb)
	}
	// The ring must be priced even at tree sizes, so the fault ladder
	// can flip where the clean ladder never offers the ring at all.
	small := price(t, Query{Bytes: 1 << 14, Profile: p, Ranks: 8, Faults: fp})
	if !small.Tree {
		t.Skip("profile does not tree this size")
	}
	if small.Clean[TypedPipelined] != 0 {
		t.Fatalf("clean model priced a ring at tree size: %g", small.Clean[TypedPipelined])
	}
	if small.RingClean <= 0 || small.Faulty[TypedPipelined] <= 0 {
		t.Fatalf("fault model did not price the ring at tree size: %g / %g", small.RingClean, small.Faulty[TypedPipelined])
	}
}

// TestZeroByteCollectiveUnderFaults: an empty collective delivers
// surely and its reason carries no NaN ratio.
func TestZeroByteCollectiveUnderFaults(t *testing.T) {
	q := Query{Profile: perfmodel.Generic(), Ranks: 16, Faults: lossy(0.05)}
	m := price(t, q)
	if m.DeliveryProb != 1 || m.RingDeliveryProb != 1 {
		t.Fatalf("zero-byte collective delivers with probability %g / %g, want 1", m.DeliveryProb, m.RingDeliveryProb)
	}
	for _, goal := range []Goal{GoalBalanced, GoalFastest} {
		r := recommend(t, q, goal)
		if r.Scheme != Sendv || strings.Contains(r.Reason, "NaN") || !strings.Contains(r.Reason, "tree delivery 1.0000 vs ring 1.0000") {
			t.Errorf("goal %v: %+v", goal, r)
		}
	}
}

// TestCollectiveLadderFlipsToRingUnderLoss pins the re-priced ladder:
// the typed fan's hops replay whole transfers on a fault while the
// packed-segment ring's chunked hops retransmit selectively, so as the
// fault rate climbs the typed schedule inflates faster than the ring
// and the recommendation flips to the pipelined ring — at a size where
// the clean ladder picks the typed collective.
func TestCollectiveLadderFlipsToRingUnderLoss(t *testing.T) {
	p := perfmodel.Generic()
	q := Query{Bytes: 1 << 24, Profile: p, Ranks: 16}
	if clean := recommend(t, q, GoalFastest); clean.Scheme != Sendv {
		t.Skipf("clean ladder picks %v here, not the typed collective", clean.Scheme)
	}
	ringGain := func(rate float64) float64 {
		q := q
		q.Faults = lossy(rate)
		return price(t, q).Faulty.Ratio(Sendv, TypedPipelined)
	}
	// The ring's relative standing improves monotonically with loss.
	rates := []float64{0.005, 0.02, 0.05, 0.1}
	prev := ringGain(0)
	for _, rate := range rates {
		g := ringGain(rate)
		if g <= prev {
			t.Fatalf("ring gain not monotone in loss: %.4f at rate below %g, then %.4f", prev, rate, g)
		}
		prev = g
	}
	// And past 2% loss the ladder actually flips.
	q.Faults = memsim.FaultProfile{LegLossRate: 0.02, MaxRetries: 8}
	rec := recommend(t, q, GoalFastest)
	if rec.Scheme != TypedPipelined {
		t.Fatalf("ladder did not flip to the ring at 2%% leg loss: %+v", rec)
	}
	if !strings.Contains(rec.Reason, "fault-adjusted") {
		t.Fatalf("reason not annotated: %q", rec.Reason)
	}
}

// TestDeepTreeLosesReliabilityToRing pins the exposure accounting: the
// tree's store-and-forward critical path compounds per-hop loss, and
// with chunked hops the ring's selective recovery delivers the whole
// collective with higher probability than the whole-replay tree even
// though the ring crosses more edges.
func TestDeepTreeLosesReliabilityToRing(t *testing.T) {
	p := perfmodel.Generic()
	fp := memsim.FaultProfile{LegLossRate: 0.05, MaxRetries: 1}
	m := price(t, Query{Bytes: 1 << 24, Profile: p, Ranks: 16, Faults: fp})
	if m.Repair <= 1 {
		t.Fatalf("hop priced %d chunks", m.Repair)
	}
	if m.RingDeliveryProb <= m.DeliveryProb {
		t.Fatalf("selective ring delivery %g not above whole-replay tree delivery %g",
			m.RingDeliveryProb, m.DeliveryProb)
	}
	// Exposure grows with depth: a deeper fan faults more often per
	// attempt.
	shallow := price(t, Query{Bytes: 1 << 24, Profile: p, Ranks: 4, Faults: fp})
	if m.TreeExposure <= shallow.TreeExposure {
		t.Fatalf("exposure not monotone in depth: %g (16 ranks) vs %g (4 ranks)",
			m.TreeExposure, shallow.TreeExposure)
	}
}

// TestQueryProperties extends the reduction tests above to one loop
// over the golden grid's point-to-point and collective queries:
//   - a disabled fault profile leaves Clean and the recommendation of
//     the clean query identical, and no fault profile moves Clean;
//   - a nil or sparse observed hierarchy gives the calibrated answer;
//   - Faulty never decreases as the leg-loss rate rises.
func TestQueryProperties(t *testing.T) {
	sparse := goldenObservedSet()[0]
	if sparse.name != "sparse" {
		t.Fatalf("golden observed set starts with %q", sparse.name)
	}
	rates := []float64{0, 0.005, 0.02, 0.05, 0.1}
	for _, gp := range goldenProfiles(t) {
		for _, n := range goldenSizes() {
			for _, ranks := range append([]int{1}, goldenRanks...) {
				base := Query{Bytes: n, Profile: gp.p, Ranks: ranks}
				clean := price(t, base)
				recs := map[Goal]Recommendation{}
				for _, g := range goldenGoals {
					recs[g.goal] = recommend(t, base, g.goal)
				}
				same := func(what string, q Query, sameRec bool) {
					if c := price(t, q); c.Clean != clean.Clean {
						t.Errorf("%s n=%d ranks=%d %s: Clean %v, want %v", gp.name, n, ranks, what, c.Clean, clean.Clean)
					}
					for _, g := range goldenGoals {
						if r := recommend(t, q, g.goal); sameRec && r != recs[g.goal] {
							t.Errorf("%s n=%d ranks=%d %s %s: %+v, want %+v", gp.name, n, ranks, what, g.name, r, recs[g.goal])
						}
					}
				}
				for _, gf := range goldenFaults() {
					q := base
					q.Faults = gf.fp
					same("faults="+gf.name, q, !gf.fp.Enabled())
				}
				if ranks == 1 {
					same("observed=nil", Query{Bytes: n, Profile: gp.p}, true)
					same("observed=sparse", Query{Bytes: n, Profile: gp.p, Observed: sparse.o}, true)
				}
				prev := clean.Faulty
				prevTwoLevel := clean.FaultyTwoLevel
				for _, rate := range rates[1:] {
					q := base
					q.Faults = lossy(rate)
					c := price(t, q)
					for s := range c.Faulty {
						if c.Faulty[s] < prev[s] || math.IsNaN(c.Faulty[s]) {
							t.Errorf("%s n=%d ranks=%d %v: Faulty %g at loss %g below %g", gp.name, n, ranks, Scheme(s), c.Faulty[s], rate, prev[s])
						}
					}
					if c.FaultyTwoLevel < prevTwoLevel {
						t.Errorf("%s n=%d ranks=%d: FaultyTwoLevel %g at loss %g below %g", gp.name, n, ranks, c.FaultyTwoLevel, rate, prevTwoLevel)
					}
					prev, prevTwoLevel = c.Faulty, c.FaultyTwoLevel
				}
			}
		}
	}
}
