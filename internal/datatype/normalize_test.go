package datatype

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/buf"
)

// This file tests the Commit-time normalizer: canonical-form detection
// on the nested shapes TEMPI targets, and — the load-bearing property —
// byte-identical behaviour of the normalized program against the
// interpreting cursor's walk over the raw flattened runs across pack,
// unpack, chunked streaming, fused copy and ChecksumRange.

// hvecOfVec builds the canonical 2-D block shape: an hvector of outer
// strided vectors whose pitch breaks the regular continuation, so the
// flattener materialises an irregular table the normalizer collapses.
func hvecOfVec(t *testing.T, outer, inner, bl int, pad int64) *Type {
	t.Helper()
	in, err := Vector(inner, bl, 2*bl, Float64)
	if err != nil {
		t.Fatalf("inner vector: %v", err)
	}
	ty, err := Hvector(outer, 1, in.TrueExtent()+pad, in)
	if err != nil {
		t.Fatalf("hvector: %v", err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ty
}

func TestNormalizeHvectorOfVector(t *testing.T) {
	ty := hvecOfVec(t, 6, 16, 1, 16)
	plan, err := ty.CompilePlan(2)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if plan.Kernel() != KernelBlock {
		t.Fatalf("kernel = %v, want block (%s)", plan.Kernel(), ty.CanonicalString())
	}
	ok, raw, dims := plan.Canon()
	if !ok || raw != 6*16 || dims != 2 {
		t.Fatalf("Canon() = (%v, %d, %d), want (true, 96, 2)", ok, raw, dims)
	}
	want := KernelClass{Elem: Elem8, Stride: StrideRegular, Dims: 2}
	if plan.KernelClass() != want {
		t.Fatalf("class = %v, want %v", plan.KernelClass(), want)
	}
}

func TestNormalize3DNesting(t *testing.T) {
	// Three stride levels: runs within a row, rows within a plane,
	// planes — each pitch breaking the level below's continuation.
	in := mustType(Vector(4, 1, 2, Float64))
	mid := mustType(Hvector(3, 1, 72, in))
	ty := mustType(Hvector(2, 1, 240, mid))
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != KernelBlock {
		t.Fatalf("kernel = %v, want block (%s)", plan.Kernel(), ty.CanonicalString())
	}
	if ok, raw, dims := plan.Canon(); !ok || raw != 24 || dims != 3 {
		t.Fatalf("Canon() = (%v, %d, %d), want (true, 24, 3)", ok, raw, dims)
	}
}

func TestNormalizeSubarrayOfContiguous(t *testing.T) {
	// A 3-D subarray with partial rows: contiguous row pieces at a row
	// pitch within each plane, planes at a plane pitch — collapses to
	// a block form with one run per row (the subarray-of-contiguous
	// family).
	ty := mustType(Subarray([]int{4, 4, 8}, []int{2, 3, 3}, []int{1, 0, 0}, OrderC, Float64))
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != KernelBlock {
		t.Fatalf("kernel = %v, want block (%s)", plan.Kernel(), ty.CanonicalString())
	}
	if ok, raw, _ := plan.Canon(); !ok || raw != 6 {
		t.Fatalf("Canon() = (%v, %d, _), want (true, 6, _)", ok, raw)
	}
	// 24-byte rows are none of the named element widths: the class
	// must be the element-agnostic one.
	if c := plan.KernelClass(); c.Elem != ElemAny || c.Stride != StrideRegular {
		t.Fatalf("class = %v, want any/regular", c)
	}
}

func TestNormalizeUniformHoist(t *testing.T) {
	// Irregular offsets with a uniform block length: no canonical form,
	// but the uniform element size is hoisted onto the gather table.
	ty := mustType(IndexedBlock(1, []int{0, 3, 7, 12, 14, 21}, Float64))
	plan, err := ty.CompilePlan(2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != KernelGather {
		t.Fatalf("kernel = %v, want gather (%s)", plan.Kernel(), ty.CanonicalString())
	}
	if u := plan.prog.uniform; u != 8 {
		t.Fatalf("uniform = %d, want 8", u)
	}
	want := KernelClass{Elem: Elem8, Stride: StrideIrregular, Dims: 1}
	if plan.KernelClass() != want {
		t.Fatalf("class = %v, want %v", plan.KernelClass(), want)
	}
}

func TestNormalizeStats(t *testing.T) {
	before := PlanStatsSnapshot()
	ty := hvecOfVec(t, 4, 8, 1, 24)
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, 1))
	src.FillPattern(7)
	dst := buf.Alloc(int(plan.Bytes()))
	if _, err := plan.Pack(src, dst); err != nil {
		t.Fatal(err)
	}
	d := PlanStatsSnapshot().Sub(before)
	if d.CanonHits != 1 {
		t.Fatalf("CanonHits = %d, want 1", d.CanonHits)
	}
	if d.RunsMerged != 32-2 {
		t.Fatalf("RunsMerged = %d, want 30", d.RunsMerged)
	}
	if d.BlockOps != 1 || d.BlockBytes != plan.Bytes() {
		t.Fatalf("block attribution = %d/%dB, want 1/%dB", d.BlockOps, d.BlockBytes, plan.Bytes())
	}
	if d.CompiledOps() < 1 || d.CompiledBytes() < plan.Bytes() {
		t.Fatalf("block execution missing from compiled totals: %+v", d)
	}
}

// TestKernelClassLabels pins the descriptive class label of each
// program family — what CanonicalString and the E19 study print. The
// label selects no kernel; every class runs copyRunGroups.
func TestKernelClassLabels(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Type
		want  string
	}{
		{"contig", func() *Type { return mustType(Contiguous(4, Float64)) }, "any/contig/1d"},
		{"stride-8B", func() *Type { return mustType(Vector(8, 1, 2, Float64)) }, "elem8/regular/1d"},
		{"stride-4B", func() *Type { return mustType(Vector(8, 1, 2, Float32)) }, "elem4/regular/1d"},
		{"stride-16B", func() *Type { return mustType(Vector(8, 2, 4, Float64)) }, "elem16/regular/1d"},
		{"stride-24B", func() *Type { return mustType(Vector(8, 3, 4, Float64)) }, "any/regular/1d"},
		{"block2d-8B", func() *Type { return hvecOfVec(t, 4, 8, 1, 24) }, "elem8/regular/2d"},
		{"block2d-64B", func() *Type { return hvecOfVec(t, 4, 6, 8, 24) }, "any/regular/2d"},
		{"block3d-8B", func() *Type {
			in := mustType(Vector(4, 1, 2, Float64))
			mid := mustType(Hvector(3, 1, 72, in))
			return mustType(Hvector(2, 1, 240, mid))
		}, "elem8/regular/3d"},
		{"gather-8B", func() *Type { return mustType(IndexedBlock(1, []int{0, 3, 7, 12, 14, 21}, Float64)) }, "elem8/irregular/1d"},
	}
	for _, c := range cases {
		ty := c.build()
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		plan, err := ty.CompilePlan(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.KernelClass().String(); got != c.want {
			t.Errorf("%s: class %q, want %q (%s)", c.name, got, c.want, ty.CanonicalString())
		}
	}
}

func TestCanonicalString(t *testing.T) {
	cases := []struct {
		build func() *Type
		want  string
	}{
		{func() *Type { return mustType(Contiguous(4, Float64)) }, "canon{contig"},
		{func() *Type { return mustType(Vector(8, 1, 2, Float64)) }, "canon{stride"},
		{func() *Type { return hvecOfVec(t, 4, 8, 1, 24) }, "canon{block2d"},
		{func() *Type { return mustType(IndexedBlock(1, []int{0, 3, 7, 12, 14, 21}, Float64)) }, "canon{gather"},
	}
	for _, c := range cases {
		ty := c.build()
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		if s := ty.CanonicalString(); !bytes.Contains([]byte(s), []byte(c.want)) {
			t.Errorf("CanonicalString() = %q, want prefix %q", s, c.want)
		}
	}
}

// normalizeCorpus returns constructor closures covering the families
// the normalizer touches, including the Resized/Subarray edge cases
// from the PR 1–2 regressions. Each closure builds a fresh committed
// type.
func normalizeCorpus(t *testing.T) map[string]func() *Type {
	t.Helper()
	mk := func(ty *Type, err error) *Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		return ty
	}
	return map[string]func() *Type{
		"hvec-of-vec":   func() *Type { return hvecOfVec(t, 6, 16, 1, 16) },
		"hvec-of-vec4":  func() *Type { return hvecOfVec(t, 5, 7, 1, 4) },
		"hvec-of-block": func() *Type { return hvecOfVec(t, 4, 6, 8, 24) },
		"3d-nest": func() *Type {
			in := mustType(Vector(4, 1, 2, Float64))
			mid := mustType(Hvector(3, 1, 72, in))
			return mk(Hvector(2, 1, 240, mid))
		},
		"subarray-3d": func() *Type {
			return mk(Subarray([]int{4, 4, 8}, []int{2, 3, 3}, []int{1, 0, 0}, OrderC, Float64))
		},
		"subarray-2d": func() *Type {
			return mk(Subarray([]int{5, 8}, []int{3, 3}, []int{1, 2}, OrderC, Float64))
		},
		"indexed-irregular": func() *Type {
			return mk(Indexed([]int{2, 1, 3, 1}, []int{0, 5, 8, 16}, Float64))
		},
		"indexed-uniform": func() *Type {
			return mk(IndexedBlock(1, []int{0, 3, 7, 12, 14, 21}, Float64))
		},
		"struct-mixed": func() *Type {
			return mk(Struct([]int{1, 2, 1}, []int64{0, 8, 40}, []*Type{Int32, Float64, Complex128}))
		},
		"resized-hvec": func() *Type {
			in := mustType(Vector(4, 1, 2, Float64))
			rz := mk(Resized(in, 0, in.TrueExtent()+8))
			return mk(Hvector(3, 1, rz.Extent()+8, rz))
		},
		"hvec-of-subarray": func() *Type {
			sub := mk(Subarray([]int{4, 6}, []int{2, 3}, []int{1, 1}, OrderC, Float64))
			return mk(Hvector(3, 1, sub.Extent()+16, sub))
		},
	}
}

// TestNormalizeDifferential is the load-bearing property: for every
// corpus shape, the normalized program's pack, unpack, chunked
// streaming, fused copy and ChecksumRange results are byte-identical
// to the interpreting cursor's walk over the raw flattened runs.
func TestNormalizeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA11))
	for name, build := range normalizeCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ty := build()
			for _, count := range []int{1, 2, 3} {
				plan, err := ty.CompilePlan(count)
				if err != nil {
					t.Fatal(err)
				}
				total := plan.Bytes()
				src := buf.Alloc(userBufLen(ty, count))
				src.FillPattern(byte(count))
				want := cursorPack(t, ty, src, count, rng)
				if int64(len(want)) != total {
					t.Fatalf("sizes differ: %d vs %d", total, len(want))
				}

				// Whole-message pack.
				dst := buf.Alloc(int(total))
				if _, err := plan.Pack(src, dst); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst.Bytes(), want) {
					t.Fatalf("count %d: normalized pack differs from the cursor (%s)", count, ty.CanonicalString())
				}

				// Whole-message unpack into junk-filled buffers.
				out := buf.Alloc(userBufLen(ty, count))
				exp := buf.Alloc(userBufLen(ty, count))
				out.FillPattern(0xEE)
				exp.FillPattern(0xEE)
				if _, err := plan.Unpack(dst, out); err != nil {
					t.Fatal(err)
				}
				cursorUnpack(t, ty, exp, count, want, rng)
				if !bytes.Equal(out.Bytes(), exp.Bytes()) {
					t.Fatalf("count %d: normalized unpack differs from the cursor", count)
				}

				// Chunked streaming at odd split points (mid-run
				// entries exercise the block kernel's resumable
				// addressing).
				chunked := buf.Alloc(int(total))
				var lo int64
				for lo < total {
					hi := lo + int64(rng.Intn(97)+1)
					if hi > total {
						hi = total
					}
					if err := plan.PackRange(src, buf.FromBytes(chunked.Bytes()[lo:hi]), lo, hi); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				if !bytes.Equal(chunked.Bytes(), want) {
					t.Fatalf("count %d: chunked normalized pack differs from the cursor", count)
				}

				// ChecksumRange over a random split.
				var sum, ref buf.Checksum
				mid := total / 3
				plan.ChecksumRange(src, 0, mid, &sum)
				plan.ChecksumRange(src, mid, total, &sum)
				ref.Write(want)
				if sum.Sum64() != ref.Sum64() {
					t.Fatalf("count %d: normalized checksum differs from the cursor's bytes", count)
				}

				// Fused copy: layout → layout in one pass, against the
				// cursor scattering the packed stream.
				if plan.FusedDstSafe() {
					f := buf.Alloc(userBufLen(ty, count))
					fexp := buf.Alloc(userBufLen(ty, count))
					f.FillPattern(0xAB)
					fexp.FillPattern(0xAB)
					if _, err := FusedCopy(plan, plan, src, f); err != nil {
						t.Fatal(err)
					}
					cursorUnpack(t, ty, fexp, count, want, rng)
					if !bytes.Equal(f.Bytes(), fexp.Bytes()) {
						t.Fatalf("count %d: normalized fused copy differs from the cursor", count)
					}
				}
			}
		})
	}
}

// TestNormalizeParallelRange drives the block kernel through the
// multi-worker split so the mid-stream entry decomposition is
// exercised at arbitrary split points.
func TestNormalizeParallelRange(t *testing.T) {
	ty := hvecOfVec(t, 32, 64, 1, 16)
	plan, err := ty.CompilePlan(2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != KernelBlock {
		t.Fatalf("kernel = %v, want block", plan.Kernel())
	}
	src := buf.Alloc(userBufLen(ty, 2))
	src.FillPattern(3)
	want := buf.Alloc(int(plan.Bytes()))
	got := buf.Alloc(int(plan.Bytes()))
	plan.runRange(src, want, 0, plan.Bytes(), 0, packDirection, nil)
	for _, w := range []int{2, 3, 5, 7} {
		got.FillPattern(0)
		plan.runParallelN(src, got, packDirection, w)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("parallel block pack differs at %d workers", w)
		}
	}
	// And the inverse direction.
	back := buf.Alloc(userBufLen(ty, 2))
	ref := buf.Alloc(userBufLen(ty, 2))
	back.FillPattern(0xEE)
	ref.FillPattern(0xEE)
	plan.runRange(ref, want, 0, plan.Bytes(), 0, unpackDirection, nil)
	plan.runParallelN(back, want, unpackDirection, 5)
	if !bytes.Equal(ref.Bytes(), back.Bytes()) {
		t.Fatal("parallel block unpack differs from serial")
	}
}

// TestNormalizePipeline runs a canonical block program through the
// chunk-slot pipeline against the cursor's packed stream.
func TestNormalizePipeline(t *testing.T) {
	ty := hvecOfVec(t, 16, 32, 1, 16)
	planN, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, 1))
	src.FillPattern(9)
	want := cursorPack(t, ty, src, 1, rand.New(rand.NewSource(9)))
	pl, err := NewChunkPipeline(planN, src, 0, planN.Bytes(), 512, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, planN.Bytes())
	for {
		ch, ok := pl.Next()
		if !ok {
			break
		}
		got = append(got, ch.Data.Bytes()...)
		pl.Recycle(ch)
	}
	pl.Close()
	if !bytes.Equal(got, want) {
		t.Fatal("pipelined block stream differs from the cursor")
	}
}

// TestGatherTwin pins the stand-in studies send for "the same transfer
// without the normalizer": on E19's three families and the guidelines'
// hvector-of-vector, the twin compiles to the gather walk with the
// source's size and run count, and packs what the cursor walks over
// it. indexedIrregular is the control: gather either way.
func TestGatherTwin(t *testing.T) {
	displs := make([]int, 64)
	for i := 1; i < len(displs); i++ {
		displs[i] = displs[i-1] + 2 + (i-1)%5
	}
	rng := rand.New(rand.NewSource(0x7715))
	for _, c := range []struct {
		name   string
		ty     *Type
		kernel PlanKernel
	}{
		{"hvecOfVec8B", hvecOfVec(t, 64, 16, 1, 16), KernelBlock},
		{"subarray3d", mustType(Subarray([]int{6, 12, 48}, []int{4, 8, 32}, []int{1, 2, 4}, OrderC, Float64)), KernelBlock},
		{"indexedIrregular", mustType(IndexedBlock(1, displs, Float64)), KernelGather},
		{"guidelines/alt", hvecOfVec(t, 16, 8, 1, 32), KernelBlock},
		{"guidelines/block8", hvecOfVec(t, 16, 8, 8, 32), KernelBlock},
	} {
		twin, err := GatherTwin(c.ty)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plan, err := c.ty.CompilePlan(1)
		if err != nil {
			t.Fatal(err)
		}
		twinPlan, err := twin.CompilePlan(1)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kernel() != c.kernel || twinPlan.Kernel() != KernelGather {
			t.Errorf("%s: kernels %v/%v, want %v/gather", c.name, plan.Kernel(), twinPlan.Kernel(), c.kernel)
		}
		if twin.Size() != c.ty.Size() || twin.SegmentCount() != c.ty.SegmentCount() {
			t.Errorf("%s: twin size/runs %d/%d, want %d/%d",
				c.name, twin.Size(), twin.SegmentCount(), c.ty.Size(), c.ty.SegmentCount())
		}
		src := buf.Alloc(userBufLen(twin, 1))
		src.FillPattern(5)
		got := buf.Alloc(int(twin.Size()))
		if _, err := twin.Pack(src, 1, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), cursorPack(t, twin, src, 1, rng)) {
			t.Errorf("%s: twin pack differs from the cursor", c.name)
		}
	}
}
