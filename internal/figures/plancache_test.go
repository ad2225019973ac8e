package figures

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/perfmodel"
)

// TestPlanCacheStudy pins the E13 contract: the warm sweep is pure
// steady state (zero compilations, perfect hit rate), every curve has
// a positive bandwidth, oversize points are skipped, and Render
// reports the hit rates.
func TestPlanCacheStudy(t *testing.T) {
	opt := harness.Options{Reps: 3, MaxRealBytes: 1 << 20}
	st := study(t, "plancache")
	st.Sizes = fixed(64<<10, 256<<10, 64<<20)
	r := run(t, st, nil, opt)
	if got := r.Series(Curve{Name: "warm"}).X; len(got) != 2 {
		t.Fatalf("sizes kept = %v, want the two under MaxRealBytes", got)
	}
	for _, name := range []string{"cold", "warm", "chunked"} {
		for i, y := range r.Series(Curve{Name: name}).Y {
			if y <= 0 {
				t.Fatalf("%s: non-positive bandwidth at %g B", name, r.Series(Curve{Name: name}).X[i])
			}
		}
	}
	for _, c := range st.Claims {
		if v := c.Value(r); !c.Holds(v) {
			t.Errorf("%s = %g: warm sweep compiled or missed, or no speedup", c.Metric, v)
		}
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "hit rate 1.00"); n != 2 {
		t.Errorf("render reports a perfect hit rate at %d sizes, want 2:\n%s", n, sb.String())
	}

	if _, err := st.Run("no-such-profile", nil, opt); err == nil {
		t.Error("unknown profile accepted")
	}
	st.Sizes = func(*perfmodel.Profile, []int64) []int64 { return []int64{1 << 30} }
	if _, err := st.Run("skx-impi", nil, opt); err == nil {
		t.Error("all-oversize sweep accepted")
	}
}
