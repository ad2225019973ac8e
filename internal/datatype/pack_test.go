package datatype

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/elem"
	"repro/internal/layout"
	"repro/internal/oracle"
)

// gatherReference gathers the segments' bytes with a plain loop, the
// oracle every pack engine must match.
func gatherReference(src buf.Block, segs []layout.Segment) []byte {
	var out []byte
	for _, s := range segs {
		out = append(out, src.Bytes()[s.Off:s.End()]...)
	}
	return out
}

func TestPackVectorMatchesReference(t *testing.T) {
	ty := mustType(Vector(100, 1, 2, Float64))
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(5)
	dst := buf.Alloc(int(ty.Size()))
	n, err := ty.Pack(src, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != ty.Size() {
		t.Fatalf("packed %d, want %d", n, ty.Size())
	}
	want := gatherReference(src, ty.segments(1))
	for i, w := range want {
		if dst.Bytes()[i] != w {
			t.Fatalf("byte %d = %#x, want %#x", i, dst.Bytes()[i], w)
		}
	}
}

func TestPackUnpackRoundTripEveryConstructor(t *testing.T) {
	types := map[string]*Type{
		"contiguous":   mustType(Contiguous(13, Float64)),
		"vector":       mustType(Vector(9, 2, 5, Float64)),
		"hvector":      mustType(Hvector(7, 1, 24, Float64)),
		"indexed":      mustType(Indexed([]int{2, 1, 3}, []int{0, 4, 8}, Float64)),
		"hindexed":     mustType(Hindexed([]int{1, 2}, []int64{8, 48}, Float64)),
		"indexedblock": mustType(indexedBlock(2, []int{0, 5, 9}, Float64)),
		"struct":       mustType(Struct([]int{1, 2}, []int64{0, 8}, []*Type{Int32, Float64})),
		"subarray":     mustType(Subarray([]int{6, 6}, []int{2, 3}, []int{1, 2}, OrderC, Float64)),
	}
	for name, ty := range types {
		for _, count := range []int{1, 3} {
			bufLen := int(int64(count-1)*ty.Extent() + ty.r.last())
			src := buf.Alloc(bufLen)
			src.FillPattern(byte(len(name)))
			packed := buf.Alloc(int(ty.PackSize(count)))
			n, err := ty.Pack(src, count, packed)
			if err != nil {
				t.Fatalf("%s count=%d: pack: %v", name, count, err)
			}
			if n != ty.PackSize(count) {
				t.Fatalf("%s: packed %d want %d", name, n, ty.PackSize(count))
			}
			// Unpack into a fresh buffer and compare only the layout
			// bytes.
			back := buf.Alloc(bufLen)
			if _, err := ty.Unpack(packed, count, back); err != nil {
				t.Fatalf("%s: unpack: %v", name, err)
			}
			for _, s := range ty.segments(count) {
				for off := s.Off; off < s.End(); off++ {
					if back.Bytes()[off] != src.Bytes()[off] {
						t.Fatalf("%s count=%d: byte %d differs after round trip", name, count, off)
					}
				}
			}
			// Bytes outside the layout stay zero.
			sel := make([]bool, bufLen)
			for _, s := range ty.segments(count) {
				for off := s.Off; off < s.End(); off++ {
					sel[off] = true
				}
			}
			for i, inLayout := range sel {
				if !inLayout && back.Bytes()[i] != 0 {
					t.Fatalf("%s count=%d: unpack wrote outside the layout at %d", name, count, i)
				}
			}
		}
	}
}

func TestPackTruncate(t *testing.T) {
	ty := mustType(Vector(10, 1, 2, Float64))
	src := buf.Alloc(int(ty.Extent()))
	if _, err := ty.Pack(src, 1, buf.Alloc(8)); !errors.Is(err, ErrTruncate) {
		t.Fatalf("err = %v", err)
	}
}

func TestPackBufferTooSmall(t *testing.T) {
	ty := mustType(Vector(10, 1, 2, Float64))
	src := buf.Alloc(16) // far smaller than the 152-byte extent
	if _, err := ty.Pack(src, 1, buf.Alloc(80)); !errors.Is(err, ErrBounds) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnpackShortSource(t *testing.T) {
	ty := mustType(Vector(10, 1, 2, Float64))
	dst := buf.Alloc(int(ty.Extent()))
	if _, err := ty.Unpack(buf.Alloc(8), 1, dst); !errors.Is(err, ErrTruncate) {
		t.Fatalf("err = %v", err)
	}
}

func TestChunkedPackerEqualsOneShot(t *testing.T) {
	ty := mustType(Vector(64, 3, 7, Float64))
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(11)
	oneShot := buf.Alloc(int(ty.Size()))
	if _, err := ty.Pack(src, 1, oneShot); err != nil {
		t.Fatal(err)
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int64{1, 3, 8, 64, 1000, 1536, 10000} {
		got := make([]byte, 0, ty.Size())
		for lo := int64(0); lo < plan.Bytes(); lo += chunk {
			hi := min(lo+chunk, plan.Bytes())
			piece := buf.Alloc(int(hi - lo))
			if err := plan.PackRange(src, piece, lo, hi); err != nil {
				t.Fatal(err)
			}
			got = append(got, piece.Bytes()...)
		}
		if len(got) != oneShot.Len() {
			t.Fatalf("chunk=%d: got %d bytes, want %d", chunk, len(got), oneShot.Len())
		}
		for i := range got {
			if got[i] != oneShot.Bytes()[i] {
				t.Fatalf("chunk=%d: byte %d differs", chunk, i)
			}
		}
	}
}

func TestChunkedUnpackerEqualsOneShot(t *testing.T) {
	ty := mustType(Vector(64, 3, 7, Float64))
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(23)
	packed := buf.Alloc(int(ty.Size()))
	if _, err := ty.Pack(src, 1, packed); err != nil {
		t.Fatal(err)
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int64{1, 5, 64, 777} {
		dst := buf.Alloc(int(ty.Extent()))
		for lo := int64(0); lo < plan.Bytes(); lo += chunk {
			hi := min(lo+chunk, plan.Bytes())
			if err := plan.UnpackRange(packed.Slice(int(lo), int(hi-lo)), dst, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range ty.segments(1) {
			for o := s.Off; o < s.End(); o++ {
				if dst.Bytes()[o] != src.Bytes()[o] {
					t.Fatalf("chunk=%d: byte %d differs", chunk, o)
				}
			}
		}
	}
}

func TestVirtualPackCountsWithoutMoving(t *testing.T) {
	ty := mustType(Vector(1000, 1, 2, Float64))
	src := buf.Virtual(int(ty.Extent()))
	dst := buf.Alloc(int(ty.Size()))
	dst.FillPattern(9)
	n, err := ty.Pack(src, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != ty.Size() {
		t.Fatalf("virtual pack = %d, want %d", n, ty.Size())
	}
	// Destination untouched: virtual source moves no bytes.
	if err := oracle.VerifyPattern(dst, 9); err != nil {
		t.Fatalf("virtual pack wrote data: %v", err)
	}
}

// TestVirtualChunkedPackerProgress: a chunked pack of a virtual
// message moves nothing and attributes the whole stream, one chunk op
// per 512 KiB piece.
func TestVirtualChunkedPackerProgress(t *testing.T) {
	ty := mustType(Vector(1_000_000, 1, 2, Float64))
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 512 << 10
	before := PlanStatsSnapshot()
	if err := plan.PackChunks(buf.Virtual(int(ty.Extent())), buf.Virtual(int(ty.Size())), 0, ty.Size(), chunk, 0, nil); err != nil {
		t.Fatal(err)
	}
	d := PlanStatsSnapshot().Sub(before)
	if d.ChunkBytes != ty.Size() {
		t.Fatalf("chunk bytes = %d, want %d", d.ChunkBytes, ty.Size())
	}
	if wantSteps := (ty.Size() + chunk - 1) / chunk; d.ChunkOps != wantSteps {
		t.Fatalf("chunk ops = %d, want %d", d.ChunkOps, wantSteps)
	}
}

func TestPackFloat64Values(t *testing.T) {
	// Semantic check with real element values, not byte patterns:
	// every other double out of [0,1,2,...].
	const n = 32
	src := buf.Alloc(n * 8)
	for i := 0; i < n; i++ {
		elem.PutFloat64(src, i, float64(i))
	}
	ty := mustType(Vector(n/2, 1, 2, Float64))
	dst := buf.Alloc(n / 2 * 8)
	if _, err := ty.Pack(src, 1, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if got := elem.Float64(dst, i); got != float64(2*i) {
			t.Fatalf("element %d = %v, want %v", i, got, float64(2*i))
		}
	}
}

// Property: pack∘unpack is the identity on the layout bytes for random
// vector geometries and counts.
func TestQuickPackUnpackIdentity(t *testing.T) {
	f := func(cnt, bl, extra, count uint8, seed byte) bool {
		c := int(cnt)%20 + 1
		b := int(bl)%4 + 1
		s := b + int(extra)%5
		k := int(count)%3 + 1
		ty, err := Vector(c, b, s, Float64)
		if err != nil {
			return false
		}
		if err := ty.Commit(); err != nil {
			return false
		}
		bufLen := int(int64(k-1)*ty.Extent() + ty.r.last())
		src := buf.Alloc(bufLen)
		src.FillPattern(seed)
		packed := buf.Alloc(int(ty.PackSize(k)))
		if _, err := ty.Pack(src, k, packed); err != nil {
			return false
		}
		back := buf.Alloc(bufLen)
		if _, err := ty.Unpack(packed, k, back); err != nil {
			return false
		}
		for _, sg := range ty.segments(k) {
			for off := sg.Off; off < sg.End(); off++ {
				if back.Bytes()[off] != src.Bytes()[off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: chunked packing with random chunk sizes equals one-shot
// packing, byte for byte.
func TestQuickChunkedPackEquivalence(t *testing.T) {
	f := func(geometrySeed int64, chunkSeed int64) bool {
		rng := rand.New(rand.NewSource(geometrySeed))
		c := rng.Intn(40) + 1
		b := rng.Intn(3) + 1
		s := b + rng.Intn(4)
		ty, err := Vector(c, b, s, Float64)
		if err != nil {
			return false
		}
		_ = ty.Commit()
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(byte(geometrySeed))
		oneShot := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, oneShot); err != nil {
			return false
		}
		plan, err := ty.CompilePlan(1)
		if err != nil {
			return false
		}
		crng := rand.New(rand.NewSource(chunkSeed))
		var got []byte
		for lo := int64(0); lo < plan.Bytes(); {
			hi := min(lo+int64(crng.Intn(17)+1), plan.Bytes())
			piece := buf.Alloc(int(hi - lo))
			if err := plan.PackRange(src, piece, lo, hi); err != nil {
				return false
			}
			got = append(got, piece.Bytes()...)
			lo = hi
		}
		if len(got) != oneShot.Len() {
			return false
		}
		for i := range got {
			if got[i] != oneShot.Bytes()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: size/extent laws. size(vector) = count*blocklen*base.size;
// extent(contig(k, T)) = k*extent(T) for dense repetition.
func TestQuickSizeExtentLaws(t *testing.T) {
	f := func(cnt, bl, extra, k uint8) bool {
		c := int(cnt)%30 + 1
		b := int(bl)%5 + 1
		s := b + int(extra)%6
		kk := int(k)%10 + 1
		v, err := Vector(c, b, s, Float64)
		if err != nil {
			return false
		}
		if v.Size() != int64(c*b)*8 {
			return false
		}
		ct, err := Contiguous(kk, Float64)
		if err != nil {
			return false
		}
		return ct.Extent() == int64(kk)*Float64.Extent() && ct.Size() == ct.Extent()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
