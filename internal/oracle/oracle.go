// Package oracle holds the checks that tests in several packages share:
// whether a block holds the pattern buf.Block.FillPattern writes,
// whether a segment list keeps its ordering contract, the statistics
// of a segment list by iteration (the reference for the closed form),
// and the golden store every pinned output goes through (Golden). No
// program runs them, so only _test.go files import this package (the
// root package's TestEveryInternalFuncIsReachable enforces that).
package oracle

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/layout"
)

// VerifyPattern checks that a real block holds exactly the pattern
// b.FillPattern(seed) would write, and names the first byte that does
// not. Virtual blocks verify trivially.
func VerifyPattern(b buf.Block, seed byte) error {
	got := b.Bytes()
	want := buf.Alloc(len(got))
	want.FillPattern(seed)
	if bytes.Equal(got, want.Bytes()) {
		return nil
	}
	for i, w := range want.Bytes() {
		if got[i] != w {
			return fmt.Errorf("buf: pattern mismatch at byte %d: got %#x want %#x", i, got[i], w)
		}
	}
	return nil
}

// ValidateLayout checks a segment list's ordering and non-overlap
// contract: no negative offset or length, each segment starting at or
// past the end of the one before.
func ValidateLayout(segs []layout.Segment) error {
	prev := int64(0)
	for i, s := range segs {
		if s.Len < 0 || s.Off < 0 {
			return fmt.Errorf("layout: negative segment %d %+v", i, s)
		}
		if s.Off < prev {
			return fmt.Errorf("layout: segment %d at %d overlaps or precedes previous end %d", i, s.Off, prev)
		}
		prev = s.End()
	}
	return nil
}

// Stats computes the statistics of a segment list by iterating it:
// the reference the closed form of (*datatype.Type).Stats is tested
// against. The list is taken as it is: segments that touch count as
// two, as they do in the closed form of several instances.
func Stats(segs []layout.Segment) layout.Stats {
	if len(segs) == 0 {
		return layout.Stats{}
	}
	st := layout.Stats{
		Segments: len(segs),
		Extent:   segs[len(segs)-1].End(),
		MinBlock: math.MaxInt64,
		MinGap:   math.MaxInt64,
	}
	var sumGap int64
	var sumGapSq float64
	for i, s := range segs {
		st.Bytes += s.Len
		st.MinBlock = min(st.MinBlock, s.Len)
		st.MaxBlock = max(st.MaxBlock, s.Len)
		if i > 0 {
			gap := s.Off - segs[i-1].End()
			sumGap += gap
			sumGapSq += float64(gap) * float64(gap)
			st.MinGap = min(st.MinGap, gap)
			st.MaxGap = max(st.MaxGap, gap)
		}
	}
	st.AvgBlock = float64(st.Bytes) / float64(st.Segments)
	if gaps := float64(st.Segments - 1); gaps > 0 {
		st.AvgGap = float64(sumGap) / gaps
		if st.AvgGap > 0 {
			st.GapJitter = math.Sqrt(max(sumGapSq/gaps-st.AvgGap*st.AvgGap, 0)) / st.AvgGap
		}
	} else {
		st.MinGap = 0
	}
	if st.Extent > 0 {
		st.Density = float64(st.Bytes) / float64(st.Extent)
	}
	return st
}
