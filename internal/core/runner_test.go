package core

import (
	"bytes"
	"testing"

	"repro/internal/layout"
)

// TestGatherStridedMatchesSegments pins the copying scheme's user loop
// against the layout's own segment enumeration: every block lands
// densely, in order, and nothing past the payload is written — for the
// 8-byte word loop (counts around its 4× unroll, aligned and unaligned
// strides) and for the copy-per-block path.
func TestGatherStridedMatchesSegments(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i*37 + 11)
	}
	for _, blockLen := range []int64{4, 8, 16, 24} {
		for _, gap := range []int64{0, 3, 8, 40} {
			for count := int64(0); count <= 9; count++ {
				s := layout.Strided{Count: count, BlockLen: blockLen, Stride: blockLen + gap}
				want := make([]byte, s.Size()+8)
				for i := range want {
					want[i] = 0xCC
				}
				got := append([]byte(nil), want...)
				var off int64
				s.ForEach(func(seg layout.Segment) bool {
					copy(want[off:off+seg.Len], src[seg.Off:])
					off += seg.Len
					return true
				})
				gatherStrided(got, src, s)
				if !bytes.Equal(got, want) {
					t.Fatalf("%+v: gather differs from the layout's segments", s)
				}
			}
		}
	}
}

// TestGatherStridedBoundsPanic pins the hoisted bounds check: a layout
// that reaches past either buffer panics before any word has moved.
func TestGatherStridedBoundsPanic(t *testing.T) {
	s := layout.Strided{Count: 9, BlockLen: 8, Stride: 16}
	for _, c := range []struct {
		name       string
		dLen, sLen int64
	}{
		{"dst short", s.Size() - 1, s.Extent()},
		{"src short", s.Size(), s.Extent() - 1},
	} {
		dst, src := make([]byte, c.dLen), make([]byte, c.sLen)
		for i := range src {
			src[i] = 0x11
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: overrunning gather did not panic", c.name)
				}
			}()
			gatherStrided(dst, src, s)
		}()
		for i, b := range dst {
			if b != 0 {
				t.Fatalf("%s: byte %d written before the panic", c.name, i)
			}
		}
	}
}
