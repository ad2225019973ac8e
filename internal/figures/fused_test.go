package figures

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestFusedStudy pins the E14 contract: every layout has positive
// bandwidths for both engines, the fused sweep attributes its bytes to
// FusedOps with no staged leakage, oversize and undersize points are
// skipped, and Render reports the fused-vs-staged ratios.
func TestFusedStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st := study(t, "fused")
	st.Sizes = fixed(8<<10, 128<<10, 512<<10, 64<<20)
	r := run(t, st, nil, opt)
	for _, g := range fusedGeometries {
		fused, staged := r.Series(Curve{Name: "fused", Variant: g.name}), r.Series(Curve{Name: "staged", Variant: g.name})
		if fused.Len() != 2 || staged.Len() != 2 {
			t.Fatalf("%s kept sizes %v, want the two inside [min,max]", g.name, fused.X)
		}
		for i, x := range fused.X {
			if fused.Y[i] <= 0 || staged.Y[i] <= 0 {
				t.Fatalf("%s: non-positive bandwidth at %g B", g.name, x)
			}
		}
		// Each note line ends with the fused sweep's plan counters.
		lines := strings.Split(strings.TrimSpace(r.notes[g.name]), "\n")
		if len(lines) != 2 {
			t.Fatalf("%s: %d note lines, want 2", g.name, len(lines))
		}
		for _, l := range lines {
			if !strings.Contains(l, fmt.Sprintf(" fused=%d/", opt.Reps)) || !strings.HasSuffix(l, " staged=0/0B}") {
				t.Errorf("%s: fused sweep not attributed to %d fused ops and no staged ones: %s", g.name, opt.Reps, l)
			}
		}
	}
	if v := st.Claims[0].Value(r); !st.Claims[0].Holds(v) {
		t.Errorf("fused speedup %g not computable", v)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E14", "fused (one pass, no staging)", "fused/staged"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render lacks %q", want)
		}
	}
}
