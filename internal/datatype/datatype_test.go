package datatype

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/oracle"
)

// mustType commits a freshly constructed type, panicking on error;
// the panic surfaces as a test failure with a useful stack.
func mustType(ty *Type, err error) *Type {
	if err != nil {
		panic(err)
	}
	if err := ty.Commit(); err != nil {
		panic(err)
	}
	return ty
}

// indexedBlock is Indexed with every block blocklen base elements long:
// the layout of MPI_Type_create_indexed_block.
func indexedBlock(blocklen int, displs []int, base *Type) (*Type, error) {
	blocklens := make([]int, len(displs))
	for i := range blocklens {
		blocklens[i] = blocklen
	}
	return Indexed(blocklens, displs, base)
}

func TestBasicTypes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int64
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8},
		{Float32, 4}, {Float64, 8}, {Complex128, 16}, {Packed, 1},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size || c.ty.Extent() != c.size {
			t.Errorf("%s: size=%d extent=%d, want %d", c.ty, c.ty.Size(), c.ty.Extent(), c.size)
		}
		if !c.ty.committed {
			t.Errorf("%s: basic type not committed", c.ty)
		}
		if !c.ty.IsContiguous() {
			t.Errorf("%s: basic type not contiguous", c.ty)
		}
	}
}

func TestContiguous(t *testing.T) {
	ty := mustType(Contiguous(10, Float64))
	if ty.Size() != 80 || ty.Extent() != 80 {
		t.Fatalf("size=%d extent=%d", ty.Size(), ty.Extent())
	}
	if !ty.IsContiguous() || ty.SegmentCount() != 1 {
		t.Fatalf("contiguous type fragmented: %d segments", ty.SegmentCount())
	}
}

func TestContiguousZeroCount(t *testing.T) {
	ty := mustType(Contiguous(0, Float64))
	if ty.Size() != 0 || ty.Extent() != 0 || ty.SegmentCount() != 0 {
		t.Fatalf("zero contiguous: %+v", ty)
	}
}

func TestContiguousNegativeCount(t *testing.T) {
	if _, err := Contiguous(-1, Float64); !errors.Is(err, ErrArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestVectorEveryOther(t *testing.T) {
	// The paper's canonical type: every other double.
	ty := mustType(Vector(100, 1, 2, Float64))
	if ty.Size() != 800 {
		t.Fatalf("size = %d", ty.Size())
	}
	if ty.Extent() != 99*16+8 {
		t.Fatalf("extent = %d", ty.Extent())
	}
	if ty.SegmentCount() != 100 {
		t.Fatalf("segments = %d", ty.SegmentCount())
	}
	segs := ty.segments(1)
	if segs[0] != (layout.Segment{Off: 0, Len: 8}) || segs[1] != (layout.Segment{Off: 16, Len: 8}) {
		t.Fatalf("segments = %+v", segs[:2])
	}
}

func TestVectorDenseCoalesces(t *testing.T) {
	ty := mustType(Vector(8, 4, 4, Float64))
	if !ty.IsContiguous() {
		t.Fatalf("stride==blocklen should coalesce to contiguous, got %d segs", ty.SegmentCount())
	}
	if ty.Size() != 8*4*8 {
		t.Fatalf("size = %d", ty.Size())
	}
}

func TestVectorBlockLen(t *testing.T) {
	ty := mustType(Vector(3, 2, 5, Int32))
	// Blocks of 2 int32 (8 bytes) every 20 bytes.
	segs := ty.segments(1)
	want := []layout.Segment{{Off: 0, Len: 8}, {Off: 20, Len: 8}, {Off: 40, Len: 8}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v want %+v", i, segs[i], want[i])
		}
	}
	if ty.Extent() != 48 {
		t.Fatalf("extent = %d", ty.Extent())
	}
}

func TestVectorOverlapRejected(t *testing.T) {
	if _, err := Vector(4, 3, 2, Float64); !errors.Is(err, ErrOverlap) {
		t.Fatalf("err = %v", err)
	}
}

func TestVectorNegativeStrideRejected(t *testing.T) {
	if _, err := Vector(4, 1, -2, Float64); !errors.Is(err, ErrArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestHvectorByteStride(t *testing.T) {
	ty := mustType(Hvector(4, 1, 24, Float64))
	segs := ty.segments(1)
	for i, s := range segs {
		if s.Off != int64(i*24) || s.Len != 8 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}
}

func TestIndexedType(t *testing.T) {
	// FEM-style irregular gather: elements 0, 3, 4, 9.
	ty := mustType(indexedBlock(1, []int{0, 3, 4, 9}, Float64))
	if ty.Size() != 32 {
		t.Fatalf("size = %d", ty.Size())
	}
	segs := ty.segments(1)
	// 3 and 4 are adjacent and must coalesce.
	want := []layout.Segment{{Off: 0, Len: 8}, {Off: 24, Len: 16}, {Off: 72, Len: 8}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v want %+v", i, segs[i], want[i])
		}
	}
}

func TestIndexedVariableBlocks(t *testing.T) {
	ty := mustType(Indexed([]int{2, 1}, []int{0, 4}, Float64))
	if ty.Size() != 24 {
		t.Fatalf("size = %d", ty.Size())
	}
	segs := ty.segments(1)
	want := []layout.Segment{{Off: 0, Len: 16}, {Off: 32, Len: 8}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v want %+v", i, segs[i], want[i])
		}
	}
}

func TestIndexedLengthMismatch(t *testing.T) {
	if _, err := Indexed([]int{1}, []int{0, 1}, Float64); !errors.Is(err, ErrArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestHindexedNegativeDisplacementAllowed(t *testing.T) {
	// MPI permits negative displacements in the typemap; use fails at
	// pack time if it would escape the buffer.
	ty, err := Hindexed([]int{1, 1}, []int64{8, -8}, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if ty.lb != -8 {
		t.Fatalf("lb = %d", ty.lb)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(64)
	if _, err := ty.Pack(src, 1, buf.Alloc(16)); !errors.Is(err, ErrBounds) {
		t.Fatalf("negative offset pack err = %v", err)
	}
}

func TestStructType(t *testing.T) {
	// {int32 at 0, float64 at 8} — C struct with padding.
	ty := mustType(Struct([]int{1, 1}, []int64{0, 8}, []*Type{Int32, Float64}))
	if ty.Size() != 12 {
		t.Fatalf("size = %d", ty.Size())
	}
	// Extent padded to the 8-byte alignment of the double.
	if ty.Extent() != 16 {
		t.Fatalf("extent = %d", ty.Extent())
	}
}

func TestStructAlignmentPadding(t *testing.T) {
	// {float64 at 0, byte at 8}: span 9, padded to 16.
	ty := mustType(Struct([]int{1, 1}, []int64{0, 8}, []*Type{Float64, Byte}))
	if ty.Extent() != 16 {
		t.Fatalf("extent = %d, want 16", ty.Extent())
	}
}

func TestStructEmpty(t *testing.T) {
	if _, err := Struct(nil, nil, nil); !errors.Is(err, ErrArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubarray2DMatchesLayout(t *testing.T) {
	// 2x3 block at (1,1) of a 4x8 array of doubles: one 24-byte run
	// from each of rows 1 and 2, starting at column 1.
	ty := mustType(Subarray([]int{4, 8}, []int{2, 3}, []int{1, 1}, OrderC, Float64))
	want := []layout.Segment{{Off: (8 + 1) * 8, Len: 24}, {Off: (16 + 1) * 8, Len: 24}}
	var got []layout.Segment
	ty.r.forEach(0, func(s layout.Segment) bool {
		got = append(got, s)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("segments: got %+v want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seg %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// MPI semantics: extent covers the whole parent array.
	if ty.Extent() != 4*8*8 {
		t.Fatalf("extent = %d, want parent size %d", ty.Extent(), 4*8*8)
	}
}

func TestSubarrayFortranOrder(t *testing.T) {
	// Fortran order: first dimension fastest. A column of a 2-D array
	// is contiguous in Fortran.
	ty := mustType(Subarray([]int{8, 4}, []int{8, 1}, []int{0, 2}, OrderFortran, Float64))
	if ty.SegmentCount() != 1 {
		t.Fatalf("fortran column should be contiguous, got %d segs", ty.SegmentCount())
	}
	segs := ty.segments(1)
	if segs[0] != (layout.Segment{Off: 2 * 8 * 8, Len: 64}) {
		t.Fatalf("seg = %+v", segs[0])
	}
}

func TestSubarray3D(t *testing.T) {
	ty := mustType(Subarray([]int{4, 4, 4}, []int{2, 2, 2}, []int{1, 1, 1}, OrderC, Float64))
	if ty.Size() != 8*8 {
		t.Fatalf("size = %d", ty.Size())
	}
	if ty.SegmentCount() != 4 {
		t.Fatalf("segments = %d, want 4 rows", ty.SegmentCount())
	}
	segs := ty.segments(1)
	first := int64((1*16 + 1*4 + 1) * 8)
	if segs[0] != (layout.Segment{Off: first, Len: 16}) {
		t.Fatalf("first seg = %+v", segs[0])
	}
}

func TestSubarrayBadArgs(t *testing.T) {
	if _, err := Subarray([]int{4}, []int{5}, []int{0}, OrderC, Float64); !errors.Is(err, ErrArgument) {
		t.Fatalf("oversized subarray err = %v", err)
	}
	if _, err := Subarray([]int{4}, []int{2}, []int{3}, OrderC, Float64); !errors.Is(err, ErrArgument) {
		t.Fatalf("out-of-range start err = %v", err)
	}
}

func TestResized(t *testing.T) {
	base, _ := Vector(2, 1, 2, Float64) // 8 bytes at 0, 8 at 16; extent 24
	ty := mustType(Resized(base, 0, 32))
	if ty.Extent() != 32 {
		t.Fatalf("extent = %d", ty.Extent())
	}
	if ty.Size() != base.Size() {
		t.Fatalf("resize changed size")
	}
	if ty.TrueExtent() != 24 {
		t.Fatalf("true extent = %d, want 24", ty.TrueExtent())
	}
	// Repetition now strides by 32.
	segs := ty.segments(2)
	want := []layout.Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}, {Off: 32, Len: 8}, {Off: 48, Len: 8}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v want %+v", i, segs[i], want[i])
		}
	}
}

func TestNestedVectorOfVector(t *testing.T) {
	// Rows of a blocked matrix: vector of (vector of 2 doubles).
	inner, err := Vector(2, 1, 2, Float64) // 2 doubles, every other; extent 24
	if err != nil {
		t.Fatal(err)
	}
	outer := mustType(Hvector(3, 1, 64, inner))
	if outer.Size() != 3*16 {
		t.Fatalf("size = %d", outer.Size())
	}
	segs := outer.segments(1)
	want := []layout.Segment{{Off: 0, Len: 8}, {Off: 16, Len: 8}, {Off: 64, Len: 8}, {Off: 80, Len: 8}, {Off: 128, Len: 8}, {Off: 144, Len: 8}}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v want %+v", i, segs[i], want[i])
		}
	}
}

func TestContigOfVectorCoalescesSeams(t *testing.T) {
	// contiguous(3) of every-other-double: the vector's extent ends
	// right after its last block, so instance i's last block touches
	// instance i+1's first block and the seams coalesce: 12 - 2 = 10
	// canonical segments.
	inner, err := Vector(4, 1, 2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	outer := mustType(Contiguous(3, inner))
	if outer.Size() != 3*32 {
		t.Fatalf("size = %d", outer.Size())
	}
	if got := outer.SegmentCount(); got != 10 {
		t.Fatalf("segments = %d, want 10", got)
	}
}

func TestUncommittedUseFails(t *testing.T) {
	ty, err := Vector(4, 1, 2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(int(ty.Extent()))
	if _, err := ty.Pack(src, 1, buf.Alloc(64)); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestHugeVectorNoMaterialization(t *testing.T) {
	// 10⁸ blocks: must construct and answer stats in O(1).
	const count = 100_000_000
	ty := mustType(Vector(count, 1, 2, Float64))
	if ty.Size() != count*8 {
		t.Fatalf("size = %d", ty.Size())
	}
	if ty.SegmentCount() != count {
		t.Fatalf("segments = %d", ty.SegmentCount())
	}
	st := ty.Stats(1)
	if st.Bytes != count*8 || st.Segments != count {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgGap != 8 || st.GapJitter != 0 {
		t.Fatalf("gap stats = %+v", st)
	}
}

func TestStatsMatchDescribe(t *testing.T) {
	// Closed-form Stats must agree with iterating the layout.
	types := map[string]*Type{
		"vector":   mustType(Vector(50, 3, 7, Float64)),
		"indexed":  mustType(indexedBlock(2, []int{0, 5, 11, 20}, Float64)),
		"subarray": mustType(Subarray([]int{8, 8}, []int{3, 4}, []int{2, 1}, OrderC, Float64)),
		"struct":   mustType(Struct([]int{1, 2}, []int64{0, 16}, []*Type{Int32, Float64})),
	}
	for name, ty := range types {
		for _, count := range []int{1, 2, 5} {
			fast := ty.Stats(count)
			if slow := oracle.Stats(ty.segments(count)); fast != slow {
				t.Errorf("%s count=%d: fast=%+v slow=%+v", name, count, fast, slow)
			}
		}
	}
}

// Property: the closed-form statistics of a vector type agree exactly
// with iterating its segments, for any geometry and instance count.
func TestQuickStatsMatchOracle(t *testing.T) {
	f := func(cnt, bl, extra, count uint8) bool {
		ty, err := Vector(int(cnt)%64+1, int(bl)%4+1, int(bl)%4+1+int(extra)%8, Float64)
		if err != nil {
			return false
		}
		k := int(count)%4 + 1
		return ty.Stats(k) == oracle.Stats(ty.segments(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindVector.String() != "vector" {
		t.Fatalf("KindVector = %q", KindVector)
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind empty")
	}
}
