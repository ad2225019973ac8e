package datatype

import "repro/internal/layout"

// segments lists the byte segments of count instances of the type in
// instance order: the reference segment list the engine tests compare
// against. Runs of consecutive instances that touch stay two segments,
// as they do in the closed form of Stats.
func (t *Type) segments(count int) []layout.Segment {
	var segs []layout.Segment
	for i := int64(0); i < int64(count); i++ {
		t.r.forEach(i*t.Extent(), func(s layout.Segment) bool {
			segs = append(segs, s)
			return true
		})
	}
	return segs
}
