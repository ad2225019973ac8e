package datatype

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
)

// This file is the dense-base-assumption sweep: every constructor that
// replicates a base type is checked over derived bases whose flattened
// form is NOT a dense block — gapped (vector) bases and resized bases
// whose extent disagrees with their true span — against an oracle built
// from the constructor's definition. The Subarray-over-derived-base
// flattening bug (PR 1, found by the fuzzer) was exactly this class.

// baseAt appends base's instance runs displaced by off bytes.
func baseAt(t *testing.T, base *Type, off int64, segs []layout.Segment) []layout.Segment {
	t.Helper()
	base.r.forEach(off, func(s layout.Segment) bool {
		segs = append(segs, s)
		return true
	})
	return segs
}

// oraclePack reads the expected packed stream of count instances of a
// type whose single-instance segments are given by one call to
// instSegs: the segments of each instance sorted by offset, instances
// in order — the typemap semantics the constructors must flatten to.
func oraclePack(t *testing.T, src buf.Block, instSegs []layout.Segment, count int, ext int64) []byte {
	t.Helper()
	sorted := append([]layout.Segment(nil), instSegs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var out []byte
	for i := 0; i < count; i++ {
		base := int64(i) * ext
		for _, s := range sorted {
			lo := base + s.Off
			out = append(out, src.Bytes()[lo:lo+s.Len]...)
		}
	}
	return out
}

// checkAgainstOracle packs count instances of ty and compares with the
// definitional segment list.
func checkAgainstOracle(t *testing.T, name string, ty *Type, instSegs []layout.Segment, count int) {
	t.Helper()
	if err := ty.Commit(); err != nil {
		t.Fatalf("%s: commit: %v", name, err)
	}
	var expectBytes int64
	for _, s := range instSegs {
		expectBytes += s.Len
	}
	if got := ty.Size(); got != expectBytes {
		t.Fatalf("%s: size %d, definition says %d", name, got, expectBytes)
	}
	src := buf.Alloc(userBufLen(ty, count))
	src.FillPattern(0x3D)
	want := oraclePack(t, src, instSegs, count, ty.Extent())
	dst := buf.Alloc(int(ty.PackSize(count)))
	if _, err := ty.Pack(src, count, dst); err != nil {
		t.Fatalf("%s: pack: %v", name, err)
	}
	if !bytes.Equal(dst.Bytes(), want) {
		t.Fatalf("%s (count %d): flattened pack differs from the constructor definition", name, count)
	}
}

// nonDenseBases returns the derived bases the sweep replicates over: a
// gapped vector (multi-run flattening) and a padded resize of it
// (extent beyond the true span).
func nonDenseBases(t *testing.T) map[string]*Type {
	t.Helper()
	gapped := mustType(Vector(3, 1, 2, Float64)) // runs at 0,16,32; size 24, extent 40
	padded, err := Resized(gapped, 0, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := padded.Commit(); err != nil {
		t.Fatal(err)
	}
	return map[string]*Type{"gapped": gapped, "padded": padded}
}

// TestConstructorsNonDenseBaseDifferential sweeps the replicating
// constructors over non-dense bases against the definitional oracle.
func TestConstructorsNonDenseBaseDifferential(t *testing.T) {
	for baseName, base := range nonDenseBases(t) {
		ext := base.Extent()
		for count := 1; count <= 2; count++ {
			// Contiguous: copies at i*extent.
			{
				ty, err := Contiguous(3, base)
				if err != nil {
					t.Fatal(err)
				}
				var segs []layout.Segment
				for i := int64(0); i < 3; i++ {
					segs = baseAt(t, base, i*ext, segs)
				}
				checkAgainstOracle(t, baseName+"/contiguous", ty, segs, count)
			}
			// Hvector: blocks at j*stride bytes, elements at k*extent.
			{
				stride := 2*ext + 8
				ty, err := Hvector(3, 2, stride, base)
				if err != nil {
					t.Fatal(err)
				}
				var segs []layout.Segment
				for j := int64(0); j < 3; j++ {
					for k := int64(0); k < 2; k++ {
						segs = baseAt(t, base, j*stride+k*ext, segs)
					}
				}
				checkAgainstOracle(t, baseName+"/hvector", ty, segs, count)
			}
			// Indexed: blocks of base copies at displacements in extents.
			{
				blens, displs := []int{2, 1}, []int{0, 3}
				ty, err := Indexed(blens, displs, base)
				if err != nil {
					t.Fatal(err)
				}
				var segs []layout.Segment
				for i := range blens {
					for k := int64(0); k < int64(blens[i]); k++ {
						segs = baseAt(t, base, (int64(displs[i])+k)*ext, segs)
					}
				}
				checkAgainstOracle(t, baseName+"/indexed", ty, segs, count)
			}
			// Struct: fields at byte displacements, copies at the
			// field's extent.
			{
				fields := []*Type{Int32, base}
				blens := []int{1, 2}
				displs := []int64{0, 8}
				ty, err := Struct(blens, displs, fields)
				if err != nil {
					t.Fatal(err)
				}
				var segs []layout.Segment
				for i, f := range fields {
					for k := int64(0); k < int64(blens[i]); k++ {
						segs = baseAt(t, f, displs[i]+k*f.Extent(), segs)
					}
				}
				checkAgainstOracle(t, baseName+"/struct", ty, segs, count)
			}
			// Subarray: selected elements at their parent element
			// offsets times the base extent.
			{
				sizes, subs, starts := []int{3, 4}, []int{2, 2}, []int{1, 1}
				ty, err := Subarray(sizes, subs, starts, OrderC, base)
				if err != nil {
					t.Fatal(err)
				}
				var segs []layout.Segment
				for r := 0; r < subs[0]; r++ {
					for c := 0; c < subs[1]; c++ {
						elem := int64((starts[0]+r)*sizes[1] + starts[1] + c)
						segs = baseAt(t, base, elem*ext, segs)
					}
				}
				// Subarray extent spans the whole parent array, so
				// count > 1 needs no special care.
				checkAgainstOracle(t, baseName+"/subarray", ty, segs, count)
			}
		}
	}
}

// TestVectorResizedShrunkBaseOverlap is the regression for the sweep's
// finding: the single-run hvector/vector fast path checked the stride
// against the block *extent* only, so a Resized base whose extent is
// shrunk under its payload run produced silently overlapping regular
// runs with a negative gap (the multi-run path rejects the same shape
// with ErrOverlap). All four shapes must now agree.
func TestVectorResizedShrunkBaseOverlap(t *testing.T) {
	base, err := Contiguous(4, Byte) // one 4-byte run
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := Resized(base, 0, 2) // extent under the run
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Hvector(2, 1, 2, shrunk); !errors.Is(err, ErrOverlap) {
		t.Errorf("hvector blocklen=1 over shrunk base: %v, want ErrOverlap", err)
	}
	if _, err := Hvector(2, 2, 4, shrunk); !errors.Is(err, ErrOverlap) {
		t.Errorf("hvector blocklen=2 over shrunk base: %v, want ErrOverlap", err)
	}
	if _, err := Vector(2, 1, 1, shrunk); !errors.Is(err, ErrOverlap) {
		t.Errorf("vector blocklen=1 over shrunk base: %v, want ErrOverlap", err)
	}
	if _, err := Contiguous(2, shrunk); !errors.Is(err, ErrOverlap) {
		t.Errorf("contiguous over shrunk base: %v, want ErrOverlap", err)
	}

	// A stride that clears the real run stays valid and must flatten
	// to the run pattern, not the shrunken extent.
	ok, err := Hvector(2, 1, 8, shrunk)
	if err != nil {
		t.Fatalf("hvector with clearing stride: %v", err)
	}
	var segs []layout.Segment
	for j := int64(0); j < 2; j++ {
		segs = baseAt(t, shrunk, j*8, segs)
	}
	checkAgainstOracle(t, "shrunk/hvector-clearing", ok, segs, 1)
}

// TestHindexedDenseBaseDifferential covers hindexed's one-segment-per-
// block path: bases whose instances tile one run — a basic type, one
// whose run starts past offset 0, and one whose lower bound sits before
// its run — over unsorted displacements with an empty block, against
// the definitional oracle, and the same bases' overlap rejection.
func TestHindexedDenseBaseDifferential(t *testing.T) {
	shifted, err := Hindexed([]int{1}, []int64{8}, Float64) // run at 8, extent 8
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := Resized(Float64, -8, 8) // run at 0, lb -8
	if err != nil {
		t.Fatal(err)
	}
	blens, displs := []int{2, 0, 1, 3}, []int64{64, 8, 0, 24}
	for name, base := range map[string]*Type{"float64": Float64, "shifted": shifted, "lowered": lowered} {
		if err := base.Commit(); err != nil {
			t.Fatal(err)
		}
		ext := base.Extent()
		for count := 1; count <= 2; count++ {
			ty, err := Hindexed(blens, displs, base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var segs []layout.Segment
			for i, bl := range blens {
				for k := int64(0); k < int64(bl); k++ {
					segs = baseAt(t, base, displs[i]+k*ext, segs)
				}
			}
			sort.Slice(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off })
			checkAgainstOracle(t, name+"/hindexed", ty, segs, count)
		}
		if _, err := Hindexed([]int{2, 1}, []int64{0, ext}, base); !errors.Is(err, ErrOverlap) {
			t.Errorf("%s: overlapping blocks: %v, want ErrOverlap", name, err)
		}
		if _, err := Hindexed([]int{1, -1}, []int64{0, 8}, base); !errors.Is(err, ErrArgument) {
			t.Errorf("%s: negative blocklen: %v, want ErrArgument", name, err)
		}
	}
}
