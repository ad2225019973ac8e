package memsim

import (
	"math"
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/oracle"
)

// TestNormalizedCostOrdering pins the engine ladder on a many-segment
// layout: the canonicalised block kernel amortises per-segment
// bookkeeping beyond the generic compiled gather, which already beats
// the interpreting loop — and the traffic term is identical, so the
// ordering is strict exactly because of the bookkeeping.
func TestNormalizedCostOrdering(t *testing.T) {
	h := testHierarchy()
	st := oracle.Stats(layout.Jittered(1<<16, 8, 16, 0))
	src := buf.Alloc(int(st.Extent))
	dst := buf.Alloc(int(st.Bytes))
	generic := NewState(h).GatherCost(src.Region(), dst.Region(), st, Kernel{})
	compiled := NewState(h).GatherCost(src.Region(), dst.Region(), st, Kernel{Engine: Compiled})
	norm := NewState(h).GatherCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized})
	if !(norm < compiled && compiled < generic) {
		t.Fatalf("gather ladder broken: normalized %g, compiled %g, generic %g", norm, compiled, generic)
	}
	genericS := NewState(h).ScatterCost(src.Region(), dst.Region(), st, Kernel{})
	compiledS := NewState(h).ScatterCost(src.Region(), dst.Region(), st, Kernel{Engine: Compiled})
	normS := NewState(h).ScatterCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized})
	if !(normS < compiledS && compiledS < genericS) {
		t.Fatalf("scatter ladder broken: normalized %g, compiled %g, generic %g", normS, compiledS, genericS)
	}
}

// TestParallelNormalizedCosts checks the worker-split variants scale
// the canonicalised cost down and never below the bandwidth-saturated
// bound.
func TestParallelNormalizedCosts(t *testing.T) {
	h := testHierarchy()
	st := oracle.Stats(layout.Jittered(1<<16, 8, 16, 0))
	src := buf.Alloc(int(st.Extent))
	dst := buf.Alloc(int(st.Bytes))
	serial := NewState(h).GatherCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized})
	par := NewState(h).GatherCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized, Workers: 4})
	if par >= serial {
		t.Fatalf("4-worker normalized gather %g not under serial %g", par, serial)
	}
	if floor := serial / 8; par < floor {
		t.Fatalf("4-worker normalized gather %g below saturation floor %g", par, floor)
	}
	serialS := NewState(h).ScatterCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized})
	parS := NewState(h).ScatterCost(src.Region(), dst.Region(), st, Kernel{Engine: Normalized, Workers: 4})
	if parS >= serialS {
		t.Fatalf("4-worker normalized scatter %g not under serial %g", parS, serialS)
	}
}

// TestEstimateLegLossRate round-trips the calibration: from a true
// per-leg rate, derive the exact expected counters and require the
// estimator to recover the rate.
func TestEstimateLegLossRate(t *testing.T) {
	const lambda, legs = 0.01, 5
	f := FaultProfile{LegLossRate: lambda, MaxRetries: 8}
	p := f.AttemptFailProb(legs)
	// Expected retries per delivered transfer are geometric: p/(1-p).
	const transfers = 1_000_000
	retries := int64(math.Round(transfers * p / (1 - p)))
	got, ok := EstimateLegLossRate(retries, transfers, legs)
	if !ok || math.Abs(got-lambda) > 1e-4 {
		t.Fatalf("estimated rate %g (ok=%v), want ≈%g", got, ok, lambda)
	}
	// Zero retries over real traffic is a measured-clean link.
	if r, ok := EstimateLegLossRate(0, transfers, legs); r != 0 || !ok {
		t.Fatalf("zero retries estimated rate %g (ok=%v)", r, ok)
	}
	// Zero transfers carry no evidence: explicitly not calibrated.
	if r, ok := EstimateLegLossRate(5, 0, legs); r != 0 || ok {
		t.Fatalf("zero transfers estimated rate %g (ok=%v), want not-calibrated", r, ok)
	}
	if r, ok := EstimateLegLossRate(5, transfers, 0); r != 0 || ok {
		t.Fatalf("zero legs estimated rate %g (ok=%v), want not-calibrated", r, ok)
	}
}

// TestCalibratedKeepsPricingFields checks Calibrated swaps only the
// rate, keeping the retry/backoff pricing terms.
func TestCalibratedKeepsPricingFields(t *testing.T) {
	f := FaultProfile{LegLossRate: 0.5, MaxRetries: 8, BaseBackoff: 2e-5, MaxBackoff: 2e-3}
	c, ok := f.Calibrated(100, 10_000, 3)
	if !ok {
		t.Fatal("real counters reported not-calibrated")
	}
	if c.MaxRetries != f.MaxRetries || c.BaseBackoff != f.BaseBackoff || c.MaxBackoff != f.MaxBackoff {
		t.Fatalf("Calibrated changed pricing fields: %+v", c)
	}
	if c.LegLossRate <= 0 || c.LegLossRate >= f.LegLossRate {
		t.Fatalf("Calibrated rate %g, want observed (0, %g)", c.LegLossRate, f.LegLossRate)
	}
}
