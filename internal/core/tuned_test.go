package core

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

// TestRecommendTunedFallsBack pins the degradation ladder: nil
// hierarchy and under-sampled hierarchy both reproduce the calibrated
// recommendation exactly.
func TestRecommendTunedFallsBack(t *testing.T) {
	p := perfmodel.Generic()
	for _, n := range []int64{1 << 10, 1 << 20, 1 << 27} {
		for _, goal := range []Goal{GoalBalanced, GoalFastest} {
			want := recommend(t, Query{Bytes: n, Profile: p}, goal)
			if got := recommend(t, Query{Bytes: n, Profile: p, Observed: nil}, goal); got.Scheme != want.Scheme {
				t.Errorf("nil hierarchy: n=%d goal=%v got %s want %s", n, goal, got.Scheme, want.Scheme)
			}
			sparse := memsim.NewObservedHierarchy()
			sparse.Observe(memsim.PathTypedSend, 1<<20, 1e-4) // below MinObservations
			if got := recommend(t, Query{Bytes: n, Profile: p, Observed: sparse}, goal); got.Scheme != want.Scheme {
				t.Errorf("sparse hierarchy: n=%d goal=%v got %s want %s", n, goal, got.Scheme, want.Scheme)
			}
		}
	}
	// Contiguous payloads stay on the reference path regardless.
	o := memsim.NewObservedHierarchy()
	feed(o, memsim.PathTypedSend, 1e-6, 1e-9)
	dense := committer(t)(datatype.Contiguous(1<<17, datatype.Float64))
	if got := recommend(t, Query{Type: dense, Profile: p, Observed: o}, GoalFastest); got.Scheme != Reference {
		t.Errorf("contiguous payload recommended %s", got.Scheme)
	}
}

// TestRecommendTunedPrefersObservedWinner pins the self-tuning
// property: when the observed fits say the typed send loses badly, the
// recommendation abandons it; when they say it wins, GoalBalanced
// keeps the user-friendly derived datatype.
func TestRecommendTunedPrefersObservedWinner(t *testing.T) {
	p := perfmodel.Generic()
	const n = 1 << 20

	// Typed observed 100x slower than packed: must not pick VectorType.
	slow := memsim.NewObservedHierarchy()
	feed(slow, memsim.PathTypedSend, 1e-3, 1e-7)
	feed(slow, memsim.PathPackedSend, 1e-6, 1e-9)
	q := Query{Bytes: n, Profile: p, Observed: slow}
	got := recommend(t, q, GoalFastest)
	if got.Scheme == VectorType {
		t.Errorf("typed observed 100x slower but still recommended: %+v", got)
	}
	m := price(t, q).Clean
	chosen := m[got.Scheme]
	if chosen <= 0 {
		t.Fatalf("recommended scheme %s is not a priced candidate", got.Scheme)
	}
	for _, s := range p2pCandidates {
		if c := m[s]; c > 0 && c < chosen {
			t.Errorf("recommended %s (%.3g s) loses to %s (%.3g s)", got.Scheme, chosen, s, c)
		}
	}

	// Typed observed near-free: balanced keeps the derived datatype.
	fast := memsim.NewObservedHierarchy()
	feed(fast, memsim.PathTypedSend, 1e-9, 1e-12)
	if got := recommend(t, Query{Bytes: n, Profile: p, Observed: fast}, GoalBalanced); got.Scheme != VectorType {
		t.Errorf("typed observed near-free under GoalBalanced: got %s, want %s", got.Scheme, VectorType)
	}
}

// TestPricePackingTunedOverrides pins which terms the observed fits
// replace: typed-send and packed-send move to the fitted lines, the
// rest keep the calibrated model.
func TestPricePackingTunedOverrides(t *testing.T) {
	p := perfmodel.Generic()
	const n = 1 << 20
	base := price(t, Query{Bytes: n, Profile: p}).Clean
	o := memsim.NewObservedHierarchy()
	feed(o, memsim.PathTypedSend, 2e-6, 1e-10)
	tuned := price(t, Query{Bytes: n, Profile: p, Observed: o}).Clean
	want := 2e-6 + 1e-10*float64(n)
	if diff := tuned[VectorType] - want; diff > want*0.05 || diff < -want*0.05 {
		t.Errorf("tuned typed send %.3g, want ~%.3g", tuned[VectorType], want)
	}
	if tuned[PackCompiled] != base[PackCompiled] {
		t.Errorf("compiled pack moved without a packed-send fit: %.3g vs %.3g", tuned[PackCompiled], base[PackCompiled])
	}
	if tuned[Sendv] != base[Sendv] || tuned[TypedPipelined] != base[TypedPipelined] {
		t.Error("fused/pipelined terms moved without observations")
	}
}

// TestRecommendCollectiveIsMinimal is the pricing-consistency property
// over the E15/E16-style grids: for every (ranks × size) cell on every
// calibrated installation, the scheme Recommend picks for a collective
// under GoalFastest must have the minimal priced cost among all
// candidate strategies of the collective cost model.
func TestRecommendCollectiveIsMinimal(t *testing.T) {
	ranksGrid := []int{2, 4, 8, 16}
	sizes := []int64{1 << 10, 16 << 10, 256 << 10, 1 << 22, 1 << 25}
	for _, name := range perfmodel.Names() {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range ranksGrid {
			for _, n := range sizes {
				q := Query{Bytes: n, Profile: p, Ranks: ranks}
				m := price(t, q).Clean
				rec := recommend(t, q, GoalFastest)
				chosen := m[rec.Scheme]
				if chosen <= 0 {
					t.Fatalf("%s ranks=%d n=%d: recommended %s is not a priced strategy", name, ranks, n, rec.Scheme)
				}
				for _, s := range collectiveCandidates {
					if c := m[s]; c > 0 && c < chosen {
						t.Errorf("%s ranks=%d n=%d: recommended %s (%.4g s) loses to %s (%.4g s)",
							name, ranks, n, rec.Scheme, chosen, s, c)
					}
				}
			}
		}
	}
}
