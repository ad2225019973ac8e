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
				stride := blockLen + gap
				want := make([]byte, count*blockLen+8)
				for i := range want {
					want[i] = 0xCC
				}
				got := append([]byte(nil), want...)
				var off int64
				for _, seg := range layout.Jittered(count, blockLen, stride, 0) {
					copy(want[off:off+seg.Len], src[seg.Off:])
					off += seg.Len
				}
				gatherStrided(got, src, count, blockLen, stride)
				if !bytes.Equal(got, want) {
					t.Fatalf("%d×%dB stride %d: gather differs from the layout's segments", count, blockLen, stride)
				}
			}
		}
	}
}

// TestGatherStridedBoundsPanic pins the hoisted bounds check: a layout
// that reaches past either buffer panics before any word has moved.
func TestGatherStridedBoundsPanic(t *testing.T) {
	const count, size, extent = 9, 9 * 8, 8*16 + 8
	for _, c := range []struct {
		name       string
		dLen, sLen int64
	}{
		{"dst short", size - 1, extent},
		{"src short", size, extent - 1},
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
			gatherStrided(dst, src, count, 8, 16)
		}()
		for i, b := range dst {
			if b != 0 {
				t.Fatalf("%s: byte %d written before the panic", c.name, i)
			}
		}
	}
}
