package datatype

import "repro/internal/layout"

// typeLayout adapts (count × type) to the layout.Layout interface: the
// reference segment list the engine tests compare against.
type typeLayout struct {
	t     *Type
	count int64
}

// Layout exposes count instances of the type as a geometric layout.
// Iteration is lazy; nothing is materialised.
func (t *Type) Layout(count int) layout.Layout {
	return typeLayout{t: t, count: int64(count)}
}

// Size implements layout.Layout.
func (l typeLayout) Size() int64 { return l.count * l.t.size }

// Extent implements layout.Layout: the highest byte offset one past
// the last touched byte.
func (l typeLayout) Extent() int64 {
	if l.count == 0 || l.t.r.n == 0 {
		return 0
	}
	return (l.count-1)*l.t.Extent() + l.t.r.last()
}

// SegmentCount implements layout.Layout (cross-instance coalescing is
// not counted).
func (l typeLayout) SegmentCount() int { return int(l.count * l.t.r.n) }

// ForEach implements layout.Layout.
func (l typeLayout) ForEach(fn func(layout.Segment) bool) {
	ext := l.t.Extent()
	for i := int64(0); i < l.count; i++ {
		if !l.t.r.forEach(i*ext, fn) {
			return
		}
	}
}

// Name implements layout.Layout.
func (l typeLayout) Name() string { return l.t.kind.String() }

// DescribeFast lets layout.Describe use the closed-form statistics.
func (l typeLayout) DescribeFast() (layout.Stats, bool) {
	return l.t.Stats(int(l.count)), true
}
