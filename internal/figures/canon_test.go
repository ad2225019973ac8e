package figures

import (
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/harness"
)

// TestCanonStudy pins the E19 contract: the collapsing families resolve
// to block kernels with positive run-count reductions and regular
// kernel classes, every packed byte of their canon sweeps lands on
// BlockOps, the irregular control keeps its gather table, size bounds
// are honoured, and Render reports the per-size attribution.
func TestCanonStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st, err := BuildCanonStudy([]int64{8 << 10, 128 << 10, 512 << 10, 64 << 20}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Panels) != len(canonGeometries) {
		t.Fatalf("panels = %d, want %d", len(st.Panels), len(canonGeometries))
	}
	for pi, p := range st.Panels {
		g := canonGeometries[pi]
		if len(p.Sizes) != 2 {
			t.Fatalf("%s kept sizes %v, want the two inside [min,max]", p.Layout, p.Sizes)
		}
		for i, n := range p.Sizes {
			if p.Canon.Y[i] <= 0 || p.Raw.Y[i] <= 0 {
				t.Fatalf("%s: non-positive bandwidth at %d B", p.Layout, n)
			}
			d := p.Stats[i]
			if g.collapses {
				if p.RawRuns[i] <= int64(p.Dims[i]) || p.Dims[i] < 2 {
					t.Errorf("%s at %d B: runs %d dims %d, want a real collapse",
						p.Layout, n, p.RawRuns[i], p.Dims[i])
				}
				if !strings.Contains(p.Classes[i], "regular") {
					t.Errorf("%s at %d B: class %q, want a regular kernel class", p.Layout, n, p.Classes[i])
				}
				if !strings.Contains(p.Forms[i], "canon{block") {
					t.Errorf("%s at %d B: form %q, want a block canonical form", p.Layout, n, p.Forms[i])
				}
				if d.BlockOps < int64(st.Reps) || d.GatherOps != 0 {
					t.Errorf("%s at %d B: canon sweep block=%d gather=%d, want all packs on the block kernel",
						p.Layout, n, d.BlockOps, d.GatherOps)
				}
			} else {
				if p.RawRuns[i] != 0 || p.Dims[i] != 0 {
					t.Errorf("%s at %d B: control collapsed (runs %d dims %d)",
						p.Layout, n, p.RawRuns[i], p.Dims[i])
				}
				if !strings.Contains(p.Forms[i], "canon{gather") {
					t.Errorf("%s at %d B: form %q, want the gather fallback", p.Layout, n, p.Forms[i])
				}
				if d.GatherOps < int64(st.Reps) {
					t.Errorf("%s at %d B: control ran %d gather ops, want >= %d",
						p.Layout, n, d.GatherOps, st.Reps)
				}
			}
		}
	}
	if st.CanonSpeedupAt("hvecOfVec8B", 512<<10) <= 0 {
		t.Error("canon speedup not computable")
	}
	if !datatype.NormalizeEnabled() {
		t.Error("study left the normalization gate disabled")
	}
	var sb strings.Builder
	if err := st.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E19", "normalized (canonical program)", "canon/raw", "canon{block"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}
