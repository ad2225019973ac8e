package figures

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestPlanCacheStudy pins the E13 contract: the warm sweep is pure
// steady state (zero compilations, perfect hit rate), every panel has
// a positive bandwidth, oversize points are skipped, and Render
// reports the hit rates.
func TestPlanCacheStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st, err := BuildPlanCacheStudy("skx-impi", []int64{64 << 10, 256 << 10, 64 << 20}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sizes) != 2 {
		t.Fatalf("sizes kept = %v, want the two under MaxRealBytes", st.Sizes)
	}
	for i := range st.Sizes {
		if st.Cold.Y[i] <= 0 || st.Warm.Y[i] <= 0 || st.Chunked.Y[i] <= 0 {
			t.Fatalf("non-positive bandwidth at %d B", st.Sizes[i])
		}
		if st.HitRates[i] != 1 {
			t.Errorf("warm hit rate at %d B = %v, want 1", st.Sizes[i], st.HitRates[i])
		}
	}
	if !st.SteadyStateClean() {
		t.Errorf("warm sweep compiled or missed: %+v", st.WarmStats)
	}
	if st.WarmSpeedupAt(256<<10) <= 0 {
		t.Error("warm speedup not computable")
	}
	var sb strings.Builder
	if err := st.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hit rate 1.00") {
		t.Error("render does not report the cache hit rate")
	}

	if _, err := BuildPlanCacheStudy("no-such-profile", []int64{64 << 10}, opt); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := BuildPlanCacheStudy("skx-impi", []int64{1 << 30}, opt); err == nil {
		t.Error("all-oversize sweep accepted")
	}
}
