// Package layout describes where the payload bytes of a non-contiguous
// message live inside a user buffer.
//
// A Layout is a purely geometric object: an ordered list of contiguous
// byte runs (Segments) relative to the start of a buffer. The derived
// datatype engine (internal/datatype) flattens its type maps into
// layouts; the memory model (internal/memsim) prices gather/scatter
// loops from layout statistics (segment count, gap regularity, block
// size); and the workload generators of the benchmark harness construct
// the strided, indexed and subarray layouts the paper motivates in §1:
// the real parts of a complex array, every other element of a grid
// during multigrid coarsening, and irregularly spaced FEM boundary
// elements.
package layout

import (
	"fmt"
	"sort"
)

// Segment is one contiguous run of Len bytes starting Off bytes into a
// buffer.
type Segment struct {
	Off int64
	Len int64
}

// End returns the first byte past the segment.
func (s Segment) End() int64 { return s.Off + s.Len }

// Layout is an ordered collection of byte segments within a buffer.
//
// Implementations must return segments in ascending, non-overlapping
// offset order so that pack/unpack engines can stream them.
type Layout interface {
	// Size is the payload: the total number of bytes selected.
	Size() int64
	// Extent is the span from the first selected byte to one past the
	// last, i.e. the minimal buffer length that contains the layout.
	Extent() int64
	// ForEach calls fn for each segment in order. fn returning false
	// stops the iteration early.
	ForEach(fn func(Segment) bool)
	// SegmentCount is the number of contiguous runs.
	SegmentCount() int
	// Name identifies the layout family for reports.
	Name() string
}

// Segments materialises the full segment list of a layout.
func Segments(l Layout) []Segment {
	out := make([]Segment, 0, l.SegmentCount())
	l.ForEach(func(s Segment) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Strided is the paper's canonical workload: Count blocks of BlockLen
// bytes, the start of consecutive blocks separated by Stride bytes.
// BlockLen = 8 and Stride = 16 selects every other float64, the
// "simplest case of a derived type" the paper measures.
type Strided struct {
	Count    int64
	BlockLen int64
	Stride   int64
}

// Size implements Layout.
func (v Strided) Size() int64 { return v.Count * v.BlockLen }

// Extent implements Layout.
func (v Strided) Extent() int64 {
	if v.Count == 0 {
		return 0
	}
	return (v.Count-1)*v.Stride + v.BlockLen
}

// SegmentCount implements Layout. Adjacent blocks merge when the
// stride equals the block length (the layout degenerates to
// contiguous).
func (v Strided) SegmentCount() int {
	if v.Count == 0 || v.BlockLen == 0 {
		return 0
	}
	if v.Stride == v.BlockLen {
		return 1
	}
	return int(v.Count)
}

// ForEach implements Layout.
func (v Strided) ForEach(fn func(Segment) bool) {
	if v.Count == 0 || v.BlockLen == 0 {
		return
	}
	if v.Stride == v.BlockLen {
		fn(Segment{Off: 0, Len: v.Count * v.BlockLen})
		return
	}
	for i := int64(0); i < v.Count; i++ {
		if !fn(Segment{Off: i * v.Stride, Len: v.BlockLen}) {
			return
		}
	}
}

// Name implements Layout.
func (v Strided) Name() string { return "strided" }

// Indexed is an explicit, irregular list of segments, such as an FEM
// boundary-element gather. Construct it with NewIndexed, which sorts
// and validates the segments.
type Indexed struct {
	segs   []Segment
	size   int64
	extent int64
	name   string
}

// NewIndexed builds an Indexed layout from a segment list. Segments
// are sorted by offset and touching segments are coalesced, matching
// the canonical form the other layouts use; overlapping segments are
// rejected; zero-length segments are dropped.
func NewIndexed(segs []Segment) (*Indexed, error) {
	s := make([]Segment, 0, len(segs))
	for _, seg := range segs {
		if seg.Len < 0 || seg.Off < 0 {
			return nil, fmt.Errorf("layout: negative segment %+v", seg)
		}
		if seg.Len > 0 {
			s = append(s, seg)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Off < s[j].Off })
	var size, extent int64
	out := s[:0]
	for _, seg := range s {
		if n := len(out); n > 0 {
			if seg.Off < out[n-1].End() {
				return nil, fmt.Errorf("layout: segment at offset %d overlaps previous ending at %d", seg.Off, out[n-1].End())
			}
			if seg.Off == out[n-1].End() {
				out[n-1].Len += seg.Len
				size += seg.Len
				extent = out[n-1].End()
				continue
			}
		}
		out = append(out, seg)
		size += seg.Len
		extent = seg.End()
	}
	return &Indexed{segs: out, size: size, extent: extent, name: "indexed"}, nil
}

// MustIndexed is NewIndexed that panics on error, for tests and
// literals known to be valid.
func MustIndexed(segs []Segment) *Indexed {
	l, err := NewIndexed(segs)
	if err != nil {
		panic(err)
	}
	return l
}

// Size implements Layout.
func (x *Indexed) Size() int64 { return x.size }

// Extent implements Layout.
func (x *Indexed) Extent() int64 { return x.extent }

// SegmentCount implements Layout.
func (x *Indexed) SegmentCount() int { return len(x.segs) }

// ForEach implements Layout.
func (x *Indexed) ForEach(fn func(Segment) bool) {
	for _, s := range x.segs {
		if !fn(s) {
			return
		}
	}
}

// Name implements Layout.
func (x *Indexed) Name() string { return x.name }
