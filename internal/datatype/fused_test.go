package datatype

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
)

// fusedOracle is the staged pipeline FusedCopy must reproduce: pack
// the source fully, then unpack the shared prefix into the
// destination layout.
func fusedOracle(t *testing.T, srcTy *Type, srcCount int, dstTy *Type, dstCount int, src buf.Block, dstLen int) []byte {
	t.Helper()
	staging := buf.Alloc(int(srcTy.PackSize(srcCount)))
	if _, err := srcTy.Pack(src, srcCount, staging); err != nil {
		t.Fatalf("oracle pack: %v", err)
	}
	dst := buf.Alloc(dstLen)
	need := dstTy.PackSize(dstCount)
	if int64(staging.Len()) > need {
		staging = staging.Slice(0, int(need))
	}
	u, err := dstTy.NewUnpacker(dst, dstCount)
	if err != nil {
		t.Fatalf("oracle unpacker: %v", err)
	}
	if staging.Len() > 0 {
		if _, err := u.Unpack(staging); err != nil {
			t.Fatalf("oracle unpack: %v", err)
		}
	}
	return dst.Bytes()
}

// userLen returns a buffer length covering count instances of ty.
func userLen(ty *Type, count int) int {
	if count == 0 {
		return 1
	}
	n := int64(count-1)*ty.Extent() + ty.r.last()
	if n < 1 {
		n = 1
	}
	return int(n)
}

// TestFusedCopyDifferential checks FusedCopy against the staged
// pack→unpack oracle across kernel pairings: stride↔stride with
// different geometries, gather↔stride, gather↔gather, contig on
// either side, and mismatched stream lengths (the pair iterator stops
// at the shorter stream).
func TestFusedCopyDifferential(t *testing.T) {
	vec := func(count, bl, str int) *Type {
		return mustType(Vector(count, bl, str, Float64))
	}
	idx := func(bl int, displs ...int) *Type {
		return mustType(IndexedBlock(bl, displs, Float64))
	}
	contig := func(n int) *Type {
		return mustType(Contiguous(n, Float64))
	}

	cases := []struct {
		name               string
		srcTy, dstTy       *Type
		srcCount, dstCount int
	}{
		{"everyOther->everyThird", vec(64, 1, 2), vec(64, 1, 3), 1, 1},
		{"blocked->everyOther", vec(16, 4, 6), vec(64, 1, 2), 1, 1},
		{"stride->contig", vec(64, 1, 2), contig(64), 1, 1},
		{"contig->stride", contig(64), vec(64, 1, 2), 1, 1},
		{"gather->stride", idx(2, 0, 5, 9, 14, 22), vec(10, 1, 2), 1, 1},
		{"stride->gather", vec(10, 1, 2), idx(2, 0, 5, 9, 14, 22), 1, 1},
		{"gather->gather", idx(1, 0, 3, 5, 10), idx(2, 0, 4), 1, 1},
		{"counted->counted", vec(8, 1, 2), vec(4, 2, 3), 3, 3},
		{"srcShorter", vec(8, 1, 2), vec(64, 1, 2), 1, 1},
		{"dstShorter", vec(64, 1, 2), vec(8, 1, 2), 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcLen := userLen(tc.srcTy, tc.srcCount)
			dstLen := userLen(tc.dstTy, tc.dstCount)
			src := buf.Alloc(srcLen)
			src.FillPattern(0x3D)

			srcPlan, err := tc.srcTy.CompilePlan(tc.srcCount)
			if err != nil {
				t.Fatal(err)
			}
			dstPlan, err := tc.dstTy.CompilePlan(tc.dstCount)
			if err != nil {
				t.Fatal(err)
			}
			if !dstPlan.FusedDstSafe() {
				t.Fatalf("test layout unexpectedly overlap-unsafe")
			}

			dst := buf.Alloc(dstLen)
			n, err := FusedCopy(srcPlan, dstPlan, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			wantN := srcPlan.Bytes()
			if dstPlan.Bytes() < wantN {
				wantN = dstPlan.Bytes()
			}
			if n != wantN {
				t.Fatalf("FusedCopy moved %d bytes, want %d", n, wantN)
			}
			want := fusedOracle(t, tc.srcTy, tc.srcCount, tc.dstTy, tc.dstCount, src, dstLen)
			if !bytes.Equal(dst.Bytes(), want) {
				t.Fatalf("fused transfer differs from staged pack→unpack oracle")
			}
		})
	}
}

// TestPairIterCoversStream pins the pair iterator invariants: spans
// are positive, contiguous in packed order, and sum to the shorter
// stream.
func TestPairIterCoversStream(t *testing.T) {
	srcTy := mustType(Vector(32, 3, 5, Float64))
	dstTy := mustType(IndexedBlock(4, []int{0, 7, 15, 26, 40, 55, 71, 88, 106, 125, 145, 166, 188, 211, 235, 260, 286, 313, 341, 370, 400, 431, 463, 496}, Float64))
	srcPlan, err := srcTy.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	dstPlan, err := dstTy.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	it := NewPairIterRange(srcPlan, dstPlan, 0, min(srcPlan.Bytes(), dstPlan.Bytes()))
	var total int64
	for {
		_, _, n, ok := it.Next()
		if !ok {
			break
		}
		if n <= 0 {
			t.Fatalf("non-positive span %d", n)
		}
		total += n
	}
	want := srcPlan.Bytes()
	if dstPlan.Bytes() < want {
		want = dstPlan.Bytes()
	}
	if total != want {
		t.Fatalf("pair iterator covered %d bytes, want %d", total, want)
	}
	if rem := it.limit - it.pos; rem != 0 {
		t.Fatalf("%d bytes remaining after exhaustion", rem)
	}
}

// TestSegIterSeekMatchesWalk pins SeekTo: for a set of packed offsets,
// seeking directly must land on the same (userOff, remainder) state a
// fresh iterator reaches by advancing.
func TestSegIterSeekMatchesWalk(t *testing.T) {
	for _, ty := range []*Type{
		mustType(Vector(16, 3, 7, Float64)),
		mustType(IndexedBlock(2, []int{0, 5, 11, 20, 28}, Float64)),
		mustType(Contiguous(9, Float64)),
	} {
		plan, err := ty.CompilePlan(3)
		if err != nil {
			t.Fatal(err)
		}
		for pos := int64(0); pos <= plan.Bytes(); pos += 5 {
			walked := plan.Segments()
			for walked.pos < pos {
				_, n := walked.Run()
				step := pos - walked.pos
				if step > n {
					step = n
				}
				walked.Advance(step)
			}
			var sought SegIter = plan.Segments()
			sought.SeekTo(pos)
			wo, wn := walked.Run()
			so, sn := sought.Run()
			if wo != so || wn != sn {
				t.Fatalf("%v pos %d: seek run (%d,%d) != walked run (%d,%d)", ty, pos, so, sn, wo, wn)
			}
		}
	}
}

// TestFusedDstSafe pins the overlap rule: plans whose repeated
// instances interleave (extent resized under the instance span) must
// refuse fused-destination duty, single instances and dense
// repetitions must accept it.
func TestFusedDstSafe(t *testing.T) {
	vec := mustType(Vector(8, 1, 2, Float64))
	p, err := vec.CompilePlan(4)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FusedDstSafe() {
		t.Fatal("regular vector plan reported overlap-unsafe")
	}

	// Indexed layout spanning 24 bytes, resized to an 8-byte extent:
	// repeated instances interleave.
	inner, err := Indexed([]int{1, 1}, []int{0, 2}, Float64)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := mustType(Resized(inner, 0, 8))
	single, err := shrunk.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if !single.FusedDstSafe() {
		t.Fatal("count-1 plan must always be fused-safe")
	}
	multi, err := shrunk.CompilePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if multi.FusedDstSafe() {
		t.Fatal("interleaving-instance plan reported fused-safe")
	}
	// The staged oracle and FusedCopy still agree byte-for-byte on the
	// *source* side of an interleaved layout (reads may overlap).
	src := buf.Alloc(userLen(shrunk, 3))
	src.FillPattern(9)
	dstTy := mustType(Contiguous(int(shrunk.PackSize(3)/8), Float64))
	dstPlan, err := dstTy.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	dst := buf.Alloc(int(dstTy.Size()))
	if _, err := FusedCopy(multi, dstPlan, src, dst); err != nil {
		t.Fatal(err)
	}
	want := fusedOracle(t, shrunk, 3, dstTy, 1, src, dst.Len())
	if !bytes.Equal(dst.Bytes(), want) {
		t.Fatal("fused gather over interleaved source differs from oracle")
	}
}

// TestFusedCopyVirtual pins the virtual path: lengths flow, no bytes
// move, stats are recorded.
func TestFusedCopyVirtual(t *testing.T) {
	ty := mustType(Vector(128, 1, 2, Float64))
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	before := PlanStatsSnapshot()
	n, err := FusedCopy(plan, plan, buf.Virtual(userLen(ty, 1)), buf.Virtual(userLen(ty, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if n != plan.Bytes() {
		t.Fatalf("virtual fused copy moved %d, want %d", n, plan.Bytes())
	}
	d := PlanStatsSnapshot().Sub(before)
	if d.FusedOps != 1 || d.FusedBytes != plan.Bytes() {
		t.Fatalf("fused attribution delta %+v", d)
	}
}

// TestFusedCopySteadyStateAllocs pins the zero-allocation contract of
// the fused hot path: with plans bound, a fused transfer allocates
// nothing.
func TestFusedCopySteadyStateAllocs(t *testing.T) {
	srcTy := mustType(Vector(512, 1, 2, Float64))
	dstTy := mustType(Vector(512, 1, 3, Float64))
	srcPlan, err := srcTy.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	dstPlan, err := dstTy.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userLen(srcTy, 1))
	src.FillPattern(1)
	dst := buf.Alloc(userLen(dstTy, 1))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := FusedCopy(srcPlan, dstPlan, src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused copy allocated %.1f objects/op in steady state", allocs)
	}
}

// TestFusedCopyParallelMatchesSerial pins the parallel fused pass:
// split across explicit worker counts, every kernel pairing must
// produce byte-identical results to the serial pass, and FusedCopy
// must attribute the execution to the fan-out ParallelWorkersFor
// chose.
func TestFusedCopyParallelMatchesSerial(t *testing.T) {
	vec := func(count, bl, str int) *Type {
		return mustType(Vector(count, bl, str, Float64))
	}
	const elems = 1 << 16 // 512 KiB payload
	cases := []struct {
		name         string
		srcTy, dstTy *Type
	}{
		{"stride->stride", vec(elems, 1, 2), vec(elems, 1, 3)},
		{"stride->contig", vec(elems, 1, 2), mustType(Contiguous(elems, Float64))},
		{"contig->stride", mustType(Contiguous(elems, Float64)), vec(elems, 1, 2)},
		{"gather->stride", mustType(Indexed(
			[]int{elems / 2, elems / 4, elems / 4},
			[]int{0, elems/2 + 3, elems + 9}, Float64)), vec(elems, 1, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcPlan := mustPlan(t, tc.srcTy, 1)
			dstPlan := mustPlan(t, tc.dstTy, 1)
			src := buf.Alloc(userLen(tc.srcTy, 1))
			src.FillPattern(0x8D)

			// Serial reference: one worker.
			want := buf.Alloc(userLen(tc.dstTy, 1))
			fusedExec(srcPlan, dstPlan, src, want, srcPlan.Bytes(), 1, 0, nil)

			before := PlanStatsSnapshot()
			got := buf.Alloc(userLen(tc.dstTy, 1))
			if _, err := FusedCopy(srcPlan, dstPlan, src, got); err != nil {
				t.Fatal(err)
			}
			if !buf.Equal(got, want) {
				t.Fatal("fused pass differs from serial")
			}
			d := PlanStatsSnapshot().Sub(before)
			if d.FusedOps != 1 {
				t.Fatalf("fused attribution %+v", d)
			}
			if w := ParallelWorkersFor(srcPlan.Bytes()); (w > 1) != (d.ParallelOps == 1) {
				t.Fatalf("parallel attribution %+v (workers %d)", d, w)
			}

			// FusedCopy splits only from ParallelPackThreshold bytes on
			// a host with more than one P. The explicit worker count
			// takes the split at any size on any host.
			for _, w := range []int{2, 3} {
				split := buf.Alloc(userLen(tc.dstTy, 1))
				fusedExec(srcPlan, dstPlan, src, split, srcPlan.Bytes(), w, 0, nil)
				if !buf.Equal(split, want) {
					t.Fatalf("fused pass split %d ways differs from serial", w)
				}
			}
		})
	}
}

// stagedRange is the oracle of a ranged fused pass: the packed range
// [lo, hi) through a staging block, PackRange then UnpackRange, into a
// zeroed destination.
func stagedRange(t *testing.T, srcPlan, dstPlan *Plan, src buf.Block, dstLen int, lo, hi int64) buf.Block {
	t.Helper()
	staging := buf.Alloc(int(hi - lo))
	dst := buf.Alloc(dstLen)
	if err := srcPlan.PackRange(src, staging, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := dstPlan.UnpackRange(staging, dst, lo, hi); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestFusedStrideStrideRange is the differential of the ranged
// stride×stride kernel against staged PackRange→UnpackRange. Run-length
// pairs cover 1:1, 1:4, 4:1, 8:8 doubles (batches), 2:3 (lengths that
// do not divide: spans only) and sub-word runs; instances hold run
// counts that share no factor with the ratio, so with count > 1 a
// rollover lands inside a batch and inside a long run on either side,
// and the total is unaligned, so the pass ends mid-run. Small instances
// take every [lo, hi) cut; large ones take the worker split 1, 2, 3 and
// 7 ways.
func TestFusedStrideStrideRange(t *testing.T) {
	for _, pair := range [][2]int{{8, 8}, {8, 32}, {32, 8}, {16, 24}, {64, 64}, {4, 8}, {6, 3}} {
		a, b := pair[0], pair[1]
		for _, size := range []struct {
			name                 string
			sRuns, dRuns, sc, dc int
			everyCut             bool
		}{
			{"small", 5, 3, 4, 3, true},
			{"large", 37, 11, 23, 19, false},
		} {
			t.Run(fmt.Sprintf("%dB→%dB/%s", a, b, size.name), func(t *testing.T) {
				srcTy := mustType(Hvector(size.sRuns, a, int64(a+8), Byte))
				dstTy := mustType(Hvector(size.dRuns, b, int64(b+5), Byte))
				srcPlan, dstPlan := mustPlan(t, srcTy, size.sc), mustPlan(t, dstTy, size.dc)
				if srcPlan.Kernel() != KernelStride || dstPlan.Kernel() != KernelStride {
					t.Fatalf("kernels %v, %v: the case is meant for the stride pair", srcPlan.Kernel(), dstPlan.Kernel())
				}
				// An unaligned total: the pass ends inside a run on both sides.
				total := min(srcPlan.Bytes(), dstPlan.Bytes()) - 5
				src := buf.Alloc(userLen(srcTy, size.sc))
				src.FillPattern(0x71)
				dstLen := userLen(dstTy, size.dc)
				if size.everyCut {
					for lo := int64(0); lo < total; lo++ {
						for hi := lo + 1; hi <= total; hi++ {
							got := buf.Alloc(dstLen)
							fusedRange(srcPlan, dstPlan, src, got, lo, hi, total, nil)
							if !buf.Equal(got, stagedRange(t, srcPlan, dstPlan, src, dstLen, lo, hi)) {
								t.Fatalf("fused range [%d,%d) differs from staged PackRange→UnpackRange", lo, hi)
							}
						}
					}
					return
				}
				want := stagedRange(t, srcPlan, dstPlan, src, dstLen, 0, total)
				for _, w := range []int{1, 2, 3, 7} {
					got := buf.Alloc(dstLen)
					fusedExec(srcPlan, dstPlan, src, got, total, w, 0, nil)
					if !buf.Equal(got, want) {
						t.Fatalf("fused pass split %d ways differs from staged PackRange→UnpackRange", w)
					}
				}
			})
		}
	}
}

// mustPlan compiles a plan or fails the test.
func mustPlan(t *testing.T, ty *Type, count int) *Plan {
	t.Helper()
	p, err := ty.CompilePlan(count)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
