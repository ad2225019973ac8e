package memsim

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
)

// everyOtherStats is the paper's canonical every-other-double layout
// at 1 MiB of payload.
func everyOtherStats() layout.Stats {
	return layout.Stats{Segments: 1 << 17, Bytes: 1 << 20, Extent: 2 << 20, AvgBlock: 8, AvgGap: 8, MinBlock: 8, MaxBlock: 8, Density: 0.5}
}

// TestFusedCopyCostUnderStagedSum pins the point of the fused engine:
// one pass must price below the staged gather+scatter pipeline it
// replaces, for both typed→contig and typed→typed destinations, while
// staying at or above the pure traffic floor.
func TestFusedCopyCostUnderStagedSum(t *testing.T) {
	st := everyOtherStats()
	n := st.Bytes
	srcR, stagingR, dstR := buf.Alloc(1).Region(), buf.Alloc(1).Region(), buf.Alloc(1).Region()

	for _, dstSt := range []layout.Stats{layout.Dense(n), st} {
		fused := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, dstSt, 1)
		stagedState := NewState(testHierarchy())
		staged := stagedState.GatherCost(srcR, stagingR, st, Kernel{Engine: Compiled}) +
			stagedState.ScatterCost(stagingR, dstR, dstSt, Kernel{Engine: Compiled})
		if fused >= staged {
			t.Fatalf("fused %g not under staged gather+scatter %g (dst segments %d)", fused, staged, dstSt.Segments)
		}
		h := testHierarchy()
		floor := float64(h.Traffic(st)) / h.CopyBW
		// Prefetch degradation can push the fused pass above the naive
		// floor, but it must never beat raw traffic at full bandwidth.
		if fused < floor*0.99 {
			t.Fatalf("fused %g beats the traffic floor %g", fused, floor)
		}
	}
}

// TestFusedCopyCostZero pins the trivial cases.
func TestFusedCopyCostZero(t *testing.T) {
	s := NewState(testHierarchy())
	if c := s.FusedCopyCost(1, 2, layout.Stats{}, layout.Stats{}, 1); c != 0 {
		t.Fatalf("empty fused copy priced %g", c)
	}
}

// TestParallelBWScaleProfileField pins the promotion of the
// saturation cap to a per-profile field: a hierarchy with a higher
// cap prices a saturated parallel pack cheaper, and the zero value
// falls back to DefaultParallelBWScale.
func TestParallelBWScaleProfileField(t *testing.T) {
	st := everyOtherStats()
	src, dst := buf.Alloc(1).Region(), buf.Alloc(1).Region()

	low := testHierarchy()
	low.ParallelBWScale = 2
	high := testHierarchy()
	high.ParallelBWScale = 8
	costLow := NewState(low).GatherCost(src, dst, st, Kernel{Engine: Compiled, Workers: 16})
	costHigh := NewState(high).GatherCost(src, dst, st, Kernel{Engine: Compiled, Workers: 16})
	if costHigh >= costLow {
		t.Fatalf("higher ParallelBWScale did not cut the saturated cost: %g >= %g", costHigh, costLow)
	}

	def := testHierarchy()
	def.ParallelBWScale = 0
	if got, want := def.parallelScale(), DefaultParallelBWScale; got != want {
		t.Fatalf("zero-value scale = %g, want default %g", got, want)
	}
	if got := def.parallelSpeedup(16); got != DefaultParallelBWScale {
		t.Fatalf("defaulted speedup at saturation = %g, want %g", got, DefaultParallelBWScale)
	}
	if got := high.parallelSpeedup(4); got != 4 {
		t.Fatalf("under-saturation speedup = %g, want worker count 4", got)
	}
}

// TestFusedCopyCostWorkersSpeedup pins the fused pricer's worker
// argument: more workers cost less, saturating at the hierarchy's
// ParallelBWScale.
func TestFusedCopyCostWorkersSpeedup(t *testing.T) {
	st := everyOtherStats()
	srcR, dstR := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	serial := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st, 0)
	par4 := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st, 4)
	if par4 >= serial {
		t.Fatalf("4-worker fused pass %g not under serial %g", par4, serial)
	}
	// Past the saturation cap, extra workers only shave bookkeeping.
	h := testHierarchy()
	cap16 := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st, 16)
	floor := float64(h.Traffic(st)) / (h.CopyBW * h.parallelScale())
	if cap16 < floor*0.2 {
		t.Fatalf("16-worker fused pass %g far below the saturated floor %g", cap16, floor)
	}
	one := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st, 1)
	if one != serial {
		t.Fatalf("1-worker fused pass %g differs from the 0-worker (serial) one %g", one, serial)
	}
}

// TestCollectiveLegCosts pins the collective terms: the staged leg
// (pack + unpack) must price above the fused leg for the canonical
// strided layout, and the fan composers must grow with rank count and
// hold their p=1 identities.
func TestCollectiveLegCosts(t *testing.T) {
	st := everyOtherStats()
	srcR, dstR := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	fused := NewState(testHierarchy()).FusedCopyCost(srcR, dstR, st, st, 1)
	stagingR := buf.Alloc(1).Region()
	staged := NewState(testHierarchy()).StagedCollectiveLegCost(srcR, stagingR, dstR, st, st)
	hand := NewState(testHierarchy())
	if sum := hand.GatherCost(srcR, stagingR, st, Kernel{Engine: Compiled}) + hand.ScatterCost(stagingR, dstR, st, Kernel{Engine: Compiled}); staged != sum {
		t.Fatalf("staged leg %g is not its compiled pack plus compiled unpack %g", staged, sum)
	}
	if fused >= staged {
		t.Fatalf("fused leg %g not under staged leg %g", fused, staged)
	}

	self, leg, wire, over := 1e-4, 2e-4, 1e-4, 1e-6
	if got := LinearFanCost(1, self, leg, wire, over); got != self {
		t.Fatalf("LinearFanCost(1) = %g, want the self leg %g", got, self)
	}
	if got := TreeFanCost(1, self, leg, wire, over); got != self {
		t.Fatalf("TreeFanCost(1) = %g, want the self leg %g", got, self)
	}
	lin4, lin8 := LinearFanCost(4, self, leg, wire, over), LinearFanCost(8, self, leg, wire, over)
	if lin8 <= lin4 {
		t.Fatalf("linear fan not monotonic: p=8 %g vs p=4 %g", lin8, lin4)
	}
	tree8 := TreeFanCost(8, self, leg, wire, over)
	if tree8 >= lin8 {
		t.Fatalf("tree fan %g not under linear fan %g at p=8 for latency-shaped legs", tree8, lin8)
	}
}
