// Package stats provides the small statistics toolkit the measurement
// harness needs: summary statistics, the paper's one-standard-deviation
// outlier dismissal (§3.2), and labelled series for the plotting and
// reporting layers.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary in two passes. An empty sample returns
// the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)))
	s.Median = Median(xs)
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the population standard deviation, or 0 for samples
// of fewer than two points.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Median returns the sample median without modifying xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample by linear
// interpolation between order statistics, without mutating the input.
// Out-of-range q clamps; an empty sample returns 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := make([]float64, len(xs))
	copy(tmp, xs)
	sort.Float64s(tmp)
	switch {
	case q <= 0:
		return tmp[0]
	case q >= 1:
		return tmp[len(tmp)-1]
	}
	pos := q * float64(len(tmp)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(tmp) {
		return tmp[lo]
	}
	return tmp[lo]*(1-frac) + tmp[lo+1]*frac
}

// Max returns the largest element, or -Inf for an empty sample.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// DismissOutliers implements the paper's measurement rule: drop
// observations more than nsigma standard deviations from the mean.
// ("Our code is set up to dismiss measurements that are more than one
// standard deviation from the average" — §3.2.) It returns a new slice
// and the number of dismissed points. If every point would be
// dismissed (possible for tiny samples), the input is returned
// unchanged, matching the paper's observation that in practice the
// test never fires.
func DismissOutliers(xs []float64, nsigma float64) ([]float64, int) {
	if len(xs) < 3 || nsigma <= 0 {
		return xs, 0
	}
	m := Mean(xs)
	sd := Stddev(xs)
	// Spread below a relative epsilon is floating-point noise (the
	// deterministic virtual clock produces byte-identical repetitions
	// whose float64 differences are a few ulps), not outliers.
	if sd == 0 || sd < math.Abs(m)*1e-9 {
		return xs, 0
	}
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m) <= nsigma*sd {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		return xs, 0
	}
	return kept, len(xs) - len(kept)
}

// Series is a labelled (x, y) sequence: one curve of one panel of one
// figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the given x, or (0, false) when x is not
// present. Xs are compared exactly; callers use the same generator for
// all curves of a figure, so exact match is well-defined.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Nearest returns the y value at the x closest to x, the first such
// point on a tie, or (0, false) for an empty series. Lookups that must
// skip a zero denominator search a Ratio series, which omits those
// points.
func (s *Series) Nearest(x float64) (float64, bool) {
	best := -1
	for i, xv := range s.X {
		if best < 0 || math.Abs(xv-x) < math.Abs(s.X[best]-x) {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return s.Y[best], true
}

// Ratio returns a new series whose Y values are num.Y/den.Y at the xs
// common to both, in num's order: the "slowdown" panel is
// Ratio(scheme, reference).
func Ratio(label string, num, den *Series) *Series {
	out := &Series{Label: label}
	for i, x := range num.X {
		if d, ok := den.YAt(x); ok && d != 0 {
			out.Append(x, num.Y[i]/d)
		}
	}
	return out
}
