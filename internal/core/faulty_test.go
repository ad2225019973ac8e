package core

import (
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

func TestRecommendUnderFaultsCleanReducesToRecommend(t *testing.T) {
	p := perfmodel.Generic()
	for _, n := range []int64{1 << 10, 1 << 20, 1 << 27} {
		for _, goal := range []Goal{GoalBalanced, GoalFastest} {
			clean := recommend(t, Query{Bytes: n, Profile: p}, goal)
			got := recommend(t, Query{Bytes: n, Profile: p, Faults: memsim.FaultProfile{}}, goal)
			if got != clean {
				t.Fatalf("n=%d goal=%v: clean fault profile diverged: %+v vs %+v", n, goal, got, clean)
			}
		}
	}
}

func TestPricePackingUnderFaults(t *testing.T) {
	p := perfmodel.Generic()
	fp := lossy(0.02)

	// Eager-sized payload: one leg.
	small := price(t, Query{Bytes: 1 << 10, Profile: p, Faults: fp})
	if small.Legs != 1 {
		t.Fatalf("eager payload priced %d legs", small.Legs)
	}
	// Rendezvous payload: envelope + internal chunks.
	big := price(t, Query{Bytes: 1 << 26, Profile: p, Faults: fp})
	if want := 1 + p.Chunks(1<<26); big.Legs != want {
		t.Fatalf("rdv payload priced %d legs, want %d", big.Legs, want)
	}
	if big.Faulty[VectorType] <= big.Clean[VectorType] {
		t.Fatal("loss did not inflate the typed send")
	}
	slowdown := func(c Cost) float64 { return c.Faulty[VectorType] / c.Clean[VectorType] }
	if slowdown(big) <= 1 {
		t.Fatalf("slowdown %g", slowdown(big))
	}
	if big.DeliveryProb <= 0 || big.DeliveryProb >= 1 {
		t.Fatalf("delivery prob %g", big.DeliveryProb)
	}
	if big.DeliveryProb >= small.DeliveryProb {
		t.Fatal("more legs should deliver less reliably")
	}

	// More loss, more slowdown (same retry/backoff pricing fields).
	worse := price(t, Query{Bytes: 1 << 26, Profile: p, Faults: lossy(0.1)})
	if slowdown(worse) <= slowdown(big) {
		t.Fatalf("slowdown not monotone in loss: %g vs %g", slowdown(worse), slowdown(big))
	}
}

func TestRecommendUnderFaultsAnnotates(t *testing.T) {
	p := perfmodel.Generic()
	q := Query{Bytes: 1 << 26, Profile: p, Faults: lossy(0.05)}
	r := recommend(t, q, GoalFastest)
	if !strings.Contains(r.Reason, "fault-adjusted") {
		t.Fatalf("reason not annotated: %q", r.Reason)
	}
	if r.Scheme == Reference {
		t.Fatalf("non-contiguous payload recommended %v", r.Scheme)
	}
	b := recommend(t, q, GoalBalanced)
	clean := recommend(t, Query{Bytes: 1 << 26, Profile: p}, GoalBalanced)
	if b.Scheme != clean.Scheme {
		t.Fatalf("balanced ladder flipped under faults: %v vs %v", b.Scheme, clean.Scheme)
	}
	if !strings.Contains(b.Reason, "fault-adjusted") {
		t.Fatalf("balanced reason not annotated: %q", b.Reason)
	}
}

// TestPipelinedKeepsEdgeUnderLoss pins the flip of PR 7's conclusion:
// with selective chunk retransmission the pipelined engine no longer
// pays a whole-span serial replay per retry — a damaged chunk replays
// only itself — so its advantage over the serial typed send survives
// heavy loss, and the selective pricing sits strictly below the
// whole-replay baseline it displaced.
func TestPipelinedKeepsEdgeUnderLoss(t *testing.T) {
	p := perfmodel.Generic()
	n := int64(1 << 26)
	if base := price(t, Query{Bytes: n, Profile: p}); base.Clean[TypedPipelined] <= 0 {
		t.Skip("profile does not pipeline this size")
	}
	at := func(rate float64) Cost {
		return price(t, Query{Bytes: n, Profile: p, Faults: memsim.FaultProfile{LegLossRate: rate, MaxRetries: 8}})
	}
	gain := func(c Cost) float64 { return c.WholeReplay[TypedPipelined] / c.Faulty[TypedPipelined] }
	for _, rate := range []float64{0.02, 0.05} {
		m := at(rate)
		if m.Repair <= 1 {
			t.Fatalf("rate %g: rendezvous payload priced %d chunks", rate, m.Repair)
		}
		// Selective recovery strictly undercuts the whole-replay
		// baseline for the engine with the expensive serial retry.
		if m.Faulty[TypedPipelined] >= m.WholeReplay[TypedPipelined] {
			t.Fatalf("rate %g: selective pipelined %g not under whole-replay %g",
				rate, m.Faulty[TypedPipelined], m.WholeReplay[TypedPipelined])
		}
		if gain(m) <= 1 {
			t.Fatalf("rate %g: selective gain %g", rate, gain(m))
		}
		// The edge itself survives: pipelined stays ahead of the serial
		// typed send even at 5% leg loss.
		if m.Faulty[TypedPipelined] >= m.Faulty[VectorType] {
			t.Fatalf("rate %g: pipelined lost its edge: %g vs typed %g",
				rate, m.Faulty[TypedPipelined], m.Faulty[VectorType])
		}
		// And selective preserves more of it than whole replay did at
		// the same rate.
		selEdge := m.Faulty.Ratio(VectorType, TypedPipelined)
		wrEdge := m.WholeReplay.Ratio(VectorType, TypedPipelined)
		if selEdge <= wrEdge {
			t.Fatalf("rate %g: selective edge %.4f not above whole-replay edge %.4f",
				rate, selEdge, wrEdge)
		}
	}
	// The payoff of per-chunk recovery grows with the loss rate.
	if g2, g5 := gain(at(0.02)), gain(at(0.05)); g5 <= g2 {
		t.Fatalf("selective gain not monotone in loss: %.4f → %.4f", g2, g5)
	}
}
