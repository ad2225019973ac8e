// Package oracle holds the checks that tests in several packages share:
// whether a block holds the pattern buf.Block.FillPattern writes, and
// whether a layout keeps its ordering and size contract. No program
// runs them, so only _test.go files import this package (the root
// package's TestEveryInternalFuncIsReachable enforces that).
package oracle

import (
	"bytes"
	"fmt"

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

// ValidateLayout checks the ordering and non-overlap contract and that
// the advertised Size and Extent match the segments.
func ValidateLayout(l layout.Layout) error {
	var (
		size int64
		prev int64 = -1
		last int64
		errv error
	)
	l.ForEach(func(s layout.Segment) bool {
		if s.Len < 0 || s.Off < 0 {
			errv = fmt.Errorf("layout %s: negative segment %+v", l.Name(), s)
			return false
		}
		if s.Off < prev {
			errv = fmt.Errorf("layout %s: segment at %d overlaps or precedes previous end %d", l.Name(), s.Off, prev)
			return false
		}
		prev = s.End()
		size += s.Len
		last = s.End()
		return true
	})
	if errv != nil {
		return errv
	}
	if size != l.Size() {
		return fmt.Errorf("layout %s: Size()=%d but segments sum to %d", l.Name(), l.Size(), size)
	}
	if l.SegmentCount() > 0 && last > l.Extent() {
		return fmt.Errorf("layout %s: Extent()=%d but last segment ends at %d", l.Name(), l.Extent(), last)
	}
	return nil
}
