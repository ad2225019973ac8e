package figures

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestCanonStudy pins the E19 contract: the collapsing families resolve
// to block kernels with positive run-count reductions and regular
// kernel classes, every pack of their canon sweeps lands on BlockOps
// and every pack of their twin sweeps on GatherOps, the irregular
// control keeps its gather table, size bounds are honoured, and Render
// reports the per-size attribution.
func TestCanonStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st := study(t, "canon")
	st.Sizes = fixed(8<<10, 128<<10, 512<<10, 64<<20)
	r := run(t, st, nil, opt)
	collapse := regexp.MustCompile(`class (\S+)  runs (\d+)→(\d+) \(block\d+d\)`)
	for _, g := range canonGeometries {
		canon, twin := r.Series(Curve{Name: "canon", Variant: g.name}), r.Series(Curve{Name: "twin", Variant: g.name})
		if canon.Len() != 2 {
			t.Fatalf("%s kept sizes %v, want the two inside [min,max]", g.name, canon.X)
		}
		gather := r.Series(Curve{Name: "twin gather ops", Variant: g.name}).Y
		block := r.Series(Curve{Name: "twin block ops", Variant: g.name}).Y
		lines := strings.Split(strings.TrimSpace(r.notes[g.name]), "\n")
		for i, n := range canon.X {
			if canon.Y[i] <= 0 || twin.Y[i] <= 0 {
				t.Fatalf("%s: non-positive bandwidth at %g B", g.name, n)
			}
			if gather[i] < float64(opt.Reps) || block[i] != 0 {
				t.Errorf("%s at %g B: twin sweep block=%g gather=%g, want all packs on the gather walk",
					g.name, n, block[i], gather[i])
			}
			cell, form := lines[2*i], lines[2*i+1]
			reps := int64(opt.Reps)
			if g.collapses {
				m := collapse.FindStringSubmatch(cell)
				if m == nil {
					t.Fatalf("%s at %g B: no collapse attribution: %s", g.name, n, cell)
				}
				runs, _ := strconv.Atoi(m[2])
				dims, _ := strconv.Atoi(m[3])
				if runs <= dims || dims < 2 || !strings.Contains(m[1], "regular") {
					t.Errorf("%s at %g B: runs %d dims %d class %q, want a real collapse onto a regular class", g.name, n, runs, dims, m[1])
				}
				if !strings.Contains(form, "canon{block") {
					t.Errorf("%s at %g B: want a block canonical form: %s", g.name, n, form)
				}
				blockOps, _ := planCounter(t, form, "block")
				gatherOps, _ := planCounter(t, form, "gather")
				if blockOps < reps || gatherOps != 0 {
					t.Errorf("%s at %g B: canon sweep block=%d gather=%d, want all packs on the block kernel", g.name, n, blockOps, gatherOps)
				}
			} else {
				if !strings.Contains(cell, "table kept (uniform hoist)") {
					t.Errorf("%s at %g B: control collapsed: %s", g.name, n, cell)
				}
				if !strings.Contains(form, "canon{gather") {
					t.Errorf("%s at %g B: want the gather fallback: %s", g.name, n, form)
				}
				if gatherOps, _ := planCounter(t, form, "gather"); gatherOps < reps {
					t.Errorf("%s at %g B: control ran %d gather ops, want >= %d", g.name, n, gatherOps, reps)
				}
			}
		}
	}
	if v := st.Claims[0].Value(r); !st.Claims[0].Holds(v) {
		t.Errorf("canon speedup %g not computable", v)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E19", "normalized (canonical program)", "canon/twin", "canon{block"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render lacks %q", want)
		}
	}
}
