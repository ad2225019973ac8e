package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("summary = %+v", s)
	}
	wantSD := math.Sqrt(1.25)
	if math.Abs(s.Stddev-wantSD) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.Stddev, wantSD)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestMedianOdd(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestDismissOutliers(t *testing.T) {
	// One wild point among tight ones.
	xs := []float64{10, 10.1, 9.9, 10, 50}
	kept, dropped := DismissOutliers(xs, 1)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	for _, x := range kept {
		if x == 50 {
			t.Fatal("outlier survived")
		}
	}
}

func TestDismissOutliersUniformSample(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	kept, dropped := DismissOutliers(xs, 1)
	if dropped != 0 || len(kept) != 4 {
		t.Fatalf("uniform sample dismissed: kept=%v dropped=%d", kept, dropped)
	}
}

func TestDismissOutliersTinySample(t *testing.T) {
	xs := []float64{1, 100}
	if _, dropped := DismissOutliers(xs, 1); dropped != 0 {
		t.Fatal("two-point sample should never dismiss")
	}
}

func TestSeriesRatio(t *testing.T) {
	ref := &Series{Label: "reference", X: []float64{1, 2, 4}, Y: []float64{1, 2, 4}}
	sch := &Series{Label: "scheme", X: []float64{1, 2, 4}, Y: []float64{3, 6, 12}}
	r := Ratio("slowdown", sch, ref)
	for i, y := range r.Y {
		if y != 3 {
			t.Fatalf("ratio[%d] = %v, want 3", i, y)
		}
	}
}

func TestSeriesRatioSkipsMissingX(t *testing.T) {
	ref := &Series{X: []float64{1, 2}, Y: []float64{1, 1}}
	sch := &Series{X: []float64{1, 3}, Y: []float64{5, 5}}
	r := Ratio("s", sch, ref)
	if r.Len() != 1 || r.X[0] != 1 {
		t.Fatalf("ratio = %+v", r)
	}
}

func TestSeriesNearest(t *testing.T) {
	s := &Series{X: []float64{10, 20, 40}, Y: []float64{1, 2, 4}}
	num := &Series{X: []float64{1, 2, 3}, Y: []float64{6, 8, 12}}
	den := &Series{X: []float64{1, 2, 3}, Y: []float64{2, 0, 3}}
	for _, c := range []struct {
		name   string
		s      *Series
		x      float64
		want   float64
		wantOK bool
	}{
		{"exact", s, 20, 2, true},
		{"between", s, 33, 4, true},
		{"tie keeps the first", s, 15, 1, true},
		{"below the range", s, -5, 1, true},
		{"above the range", s, 1e9, 4, true},
		{"empty", &Series{}, 1, 0, false},
		{"zero denominator skipped", Ratio("r", num, den), 2.2, 4, true},
		{"zero denominator tie", Ratio("r", num, den), 2, 3, true},
	} {
		if got, ok := c.s.Nearest(c.x); got != c.want || ok != c.wantOK {
			t.Errorf("%s: Nearest(%v) = (%v, %v), want (%v, %v)", c.name, c.x, got, ok, c.want, c.wantOK)
		}
	}
}

// Property: mean is within [min, max] and dismissal never increases
// the spread.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DismissOutliers output is a subsequence of the input.
func TestQuickDismissSubset(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		kept, dropped := DismissOutliers(xs, 1)
		if len(kept)+dropped != len(xs) {
			return false
		}
		// Subsequence check.
		j := 0
		for _, x := range xs {
			if j < len(kept) && kept[j] == x {
				j++
			}
		}
		return j == len(kept)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median quantile = %g", got)
	}
	if got := Quantile(xs, 0.75); got != 4 {
		t.Fatalf("q0.75 = %g", got)
	}
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty sample = %g", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("singleton = %g", got)
	}
}
