package datatype

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/oracle"
)

// randIndexed builds a random valid indexed-block type: sorted,
// non-overlapping displacements.
func randIndexed(rng *rand.Rand) (*Type, error) {
	n := rng.Intn(12) + 1
	blocklen := rng.Intn(3) + 1
	displs := make([]int, n)
	pos := 0
	for i := range displs {
		displs[i] = pos
		pos += blocklen + rng.Intn(5)
	}
	ty, err := indexedBlock(blocklen, displs, Float64)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

// Property: pack∘unpack is the identity on the selected bytes for
// random indexed types.
func TestQuickIndexedPackUnpackIdentity(t *testing.T) {
	f := func(seed int64, fill byte) bool {
		rng := rand.New(rand.NewSource(seed))
		ty, err := randIndexed(rng)
		if err != nil {
			return false
		}
		bufLen := int(ty.r.last())
		if bufLen == 0 {
			return true
		}
		src := buf.Alloc(bufLen)
		src.FillPattern(fill)
		packed := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, packed); err != nil {
			return false
		}
		back := buf.Alloc(bufLen)
		if _, err := ty.Unpack(packed, 1, back); err != nil {
			return false
		}
		for _, s := range ty.segments(1) {
			for off := s.Off; off < s.End(); off++ {
				if back.Bytes()[off] != src.Bytes()[off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a struct of (int32, k×float64) has size 4+8k and an extent
// padded to 8.
func TestQuickStructSizeLaws(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		ty, err := Struct([]int{1, k}, []int64{0, 8}, []*Type{Int32, Float64})
		if err != nil {
			return false
		}
		if ty.Size() != int64(4+8*k) {
			return false
		}
		return ty.Extent()%8 == 0 && ty.Extent() >= int64(8+8*k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Stats payload equals PackSize for any count.
func TestQuickStatsPayloadLaw(t *testing.T) {
	f := func(cnt, bl, extra, count uint8) bool {
		c := int(cnt)%30 + 1
		b := int(bl)%4 + 1
		s := b + int(extra)%5
		k := int(count)%5 + 1
		ty, err := Vector(c, b, s, Float64)
		if err != nil {
			return false
		}
		_ = ty.Commit()
		return ty.Stats(k).Bytes == ty.PackSize(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the layout exposed by a committed type validates under the
// layout package's ordering contract (non-overlap, ascending) for any
// vector geometry and count.
func TestQuickTypeLayoutValidates(t *testing.T) {
	f := func(cnt, bl, extra, count uint8) bool {
		c := int(cnt)%20 + 1
		b := int(bl)%3 + 1
		s := b + int(extra)%4
		k := int(count)%4 + 1
		ty, err := Vector(c, b, s, Float64)
		if err != nil {
			return false
		}
		_ = ty.Commit()
		segs := ty.segments(k)
		return oracle.ValidateLayout(segs) == nil && oracle.Stats(segs).Bytes == ty.PackSize(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: promote() round trip — the canonical form of a regular
// pattern re-derived from its own segments is identical.
func TestQuickPromoteRoundTrip(t *testing.T) {
	f := func(start, runLen, gap, n uint8) bool {
		r := regularRuns(int64(start), int64(runLen%32)+1, int64(gap%16), int64(n%20)+1)
		var segs []layout.Segment
		r.forEach(0, func(s layout.Segment) bool {
			segs = append(segs, s)
			return true
		})
		r2, ok := promote(segs)
		if !ok {
			return false
		}
		return r2.start == r.start && r2.runLen == r.runLen && r2.n == r.n &&
			(r2.n == 1 || r2.gap == r.gap)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTooManySegmentsRefused(t *testing.T) {
	// An irregular repetition that would materialise beyond the bound
	// must fail cleanly, not OOM. Nested irregular-over-regular with a
	// huge count hits replicate's materialisation path.
	inner, err := Vector(2, 1, 3, Float64) // irregular-ish: 2 runs, extent ≠ n*step
	if err != nil {
		t.Fatal(err)
	}
	_, err = Contiguous(20_000_000, inner) // 40M segments > maxMaterialize
	var tooMany *TooManySegmentsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("err = %v, want TooManySegmentsError", err)
	}
}

func TestResizedShrinkOverlapStillPacks(t *testing.T) {
	// Resized with extent smaller than the span: repetition interleaves
	// instances. Pack must still follow instance-major typemap order.
	base, err := Vector(2, 1, 4, Float64) // bytes 0-8 and 32-40, span 40
	if err != nil {
		t.Fatal(err)
	}
	ty, err := Resized(base, 0, 16) // instances 16 bytes apart: interleaved
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(16*3 + 40)
	src.FillPattern(9)
	packed := buf.Alloc(int(ty.PackSize(3)))
	if _, err := ty.Pack(src, 3, packed); err != nil {
		t.Fatal(err)
	}
	// Manual oracle: instance i at offset 16i selects [0,8) and [32,40).
	var want []byte
	for i := 0; i < 3; i++ {
		base := 16 * i
		want = append(want, src.Bytes()[base:base+8]...)
		want = append(want, src.Bytes()[base+32:base+40]...)
	}
	for i, w := range want {
		if packed.Bytes()[i] != w {
			t.Fatalf("byte %d = %#x, want %#x", i, packed.Bytes()[i], w)
		}
	}
}

func TestTrueExtentVsExtent(t *testing.T) {
	// Subarray: extent is the whole parent array, true extent only the
	// touched span.
	ty := mustType(Subarray([]int{8, 8}, []int{2, 2}, []int{3, 3}, OrderC, Float64))
	if ty.Extent() != 8*8*8 {
		t.Fatalf("extent = %d", ty.Extent())
	}
	firstByte := int64((3*8 + 3) * 8)
	lastByte := int64((4*8+3+2)*8) - firstByte
	if ty.TrueLB() != firstByte || ty.TrueExtent() != lastByte {
		t.Fatalf("true lb/extent = %d/%d, want %d/%d", ty.TrueLB(), ty.TrueExtent(), firstByte, lastByte)
	}
}
