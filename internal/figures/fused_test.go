package figures

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestFusedStudy pins the E14 contract: every panel has positive
// bandwidths for both engines, the fused sweep attributes its
// bytes to FusedOps with no staged leakage, oversize and undersize
// points are skipped, and Render reports the fused-vs-staged ratios.
func TestFusedStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st, err := BuildFusedStudy("skx-impi", []int64{8 << 10, 128 << 10, 512 << 10, 64 << 20}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Panels) != len(fusedGeometries) {
		t.Fatalf("panels = %d, want %d", len(st.Panels), len(fusedGeometries))
	}
	for _, p := range st.Panels {
		if len(p.Sizes) != 2 {
			t.Fatalf("%s kept sizes %v, want the two inside [min,max]", p.Layout, p.Sizes)
		}
		for i, n := range p.Sizes {
			if p.Fused.Y[i] <= 0 || p.Staged.Y[i] <= 0 {
				t.Fatalf("%s: non-positive bandwidth at %d B", p.Layout, n)
			}
			d := p.Stats[i]
			if d.FusedOps != int64(st.Reps) {
				t.Errorf("%s at %d B: fused sweep attributed %d ops, want %d", p.Layout, n, d.FusedOps, st.Reps)
			}
			if d.StagedOps != 0 {
				t.Errorf("%s at %d B: staged attribution leaked into the fused sweep", p.Layout, n)
			}
		}
	}
	if st.FusedSpeedupAt("everyOther->everyThird", 512<<10) <= 0 {
		t.Error("fused speedup not computable")
	}
	var sb strings.Builder
	if err := st.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E14", "fused (one pass, no staging)", "fused/staged"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}
