package datatype

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buf"
	"repro/internal/oracle"
)

// This file is the differential-testing harness of the pack-plan
// compiler: every compiled kernel is checked byte-for-byte against the
// interpreting cursor on randomized types, counts and chunk
// boundaries, including resume-mid-segment streaming.

// randPlanType builds a random committed type covering every
// constructor family, nesting one level deep with probability ~1/3.
// All generated types have non-negative displacements and at least one
// payload byte.
func randPlanType(rng *rand.Rand, depth int) *Type {
	base := []*Type{Byte, Int32, Float64, Complex128}[rng.Intn(4)]
	if depth > 0 && rng.Intn(3) == 0 {
		base = randPlanType(rng, depth-1)
	}
	var ty *Type
	var err error
	switch rng.Intn(8) {
	case 0:
		ty, err = Contiguous(rng.Intn(6)+1, base)
	case 1:
		bl := rng.Intn(3) + 1
		ty, err = Vector(rng.Intn(20)+1, bl, bl+rng.Intn(4), base)
	case 2:
		bl := rng.Intn(3) + 1
		stride := int64(bl)*base.Extent() + int64(rng.Intn(24))
		ty, err = Hvector(rng.Intn(16)+1, bl, stride, base)
	case 3:
		n := rng.Intn(5) + 1
		blocklens := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := range blocklens {
			blocklens[i] = rng.Intn(3) + 1
			displs[i] = pos
			pos += blocklens[i] + rng.Intn(4)
		}
		ty, err = Indexed(blocklens, displs, base)
	case 4:
		bl := rng.Intn(2) + 1
		n := rng.Intn(5) + 1
		displs := make([]int, n)
		pos := 0
		for i := range displs {
			displs[i] = pos
			pos += bl + rng.Intn(4)
		}
		ty, err = indexedBlock(bl, displs, base)
	case 5:
		fields := []*Type{Int32, base, Float64}
		blocklens := make([]int, len(fields))
		displs := make([]int64, len(fields))
		var pos int64
		for i, f := range fields {
			blocklens[i] = rng.Intn(2) + 1
			displs[i] = pos
			pos += int64(blocklens[i])*f.Extent() + int64(rng.Intn(8))
		}
		ty, err = Struct(blocklens, displs, fields)
	case 6:
		rows, cols := rng.Intn(5)+1, rng.Intn(6)+1
		sr, sc := rng.Intn(rows), rng.Intn(cols)
		ty, err = Subarray([]int{rows, cols}, []int{rows - sr, cols - sc}, []int{sr, sc}, OrderC, base)
	case 7:
		var inner *Type
		inner, err = Vector(rng.Intn(6)+1, 1, 2, base)
		if err == nil {
			ty, err = Resized(inner, 0, inner.TrueExtent()+int64(rng.Intn(16)))
		}
	}
	if err != nil {
		// A rare invalid draw (e.g. a resize under the child span):
		// substitute the canonical workload type so every iteration
		// still exercises the engines.
		ty, err = Vector(4, 1, 2, Float64)
		if err != nil {
			panic(err)
		}
	}
	if err := ty.Commit(); err != nil {
		panic(err)
	}
	return ty
}

// userBufLen returns the buffer size count instances of ty need.
func userBufLen(ty *Type, count int) int {
	if count == 0 || ty.SegmentCount() == 0 {
		return 0
	}
	return int(int64(count-1)*ty.Extent() + ty.r.last())
}

// cursorPack packs (count × ty) through the raw interpreting cursor in
// random-sized chunks — the oracle for every compiled kernel.
func cursorPack(t *testing.T, ty *Type, src buf.Block, count int, rng *rand.Rand) []byte {
	t.Helper()
	c := newCursor(ty, src, count)
	out := make([]byte, 0, c.total())
	for c.remaining() > 0 {
		n := int64(rng.Intn(64) + 1)
		if n > c.remaining() {
			n = c.remaining()
		}
		piece := buf.Alloc(int(n))
		m, err := c.transfer(piece, packDirection)
		if err != nil {
			t.Fatalf("cursor pack: %v", err)
		}
		out = append(out, piece.Bytes()[:m]...)
	}
	return out
}

// cursorUnpack scatters packed bytes through the raw cursor in
// random-sized chunks into dst.
func cursorUnpack(t *testing.T, ty *Type, dst buf.Block, count int, packed []byte, rng *rand.Rand) {
	t.Helper()
	c := newCursor(ty, dst, count)
	off := 0
	for c.remaining() > 0 {
		n := rng.Intn(64) + 1
		if int64(n) > c.remaining() {
			n = int(c.remaining())
		}
		if _, err := c.transfer(buf.FromBytes(packed[off:off+n]), unpackDirection); err != nil {
			t.Fatalf("cursor unpack: %v", err)
		}
		off += n
	}
}

// TestPlanDifferentialRandom is the core property test: on randomized
// (type, count, chunk-split) triples, the compiled plan's Pack and
// Unpack output is byte-identical to the cursor path.
func TestPlanDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0FFEE))
	for iter := 0; iter < 400; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		bufLen := userBufLen(ty, count)
		src := buf.Alloc(bufLen)
		src.FillPattern(byte(iter))

		want := cursorPack(t, ty, src, count, rng)

		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatalf("iter %d (%v): compile: %v", iter, ty, err)
		}
		dst := buf.Alloc(int(ty.PackSize(count)))
		n, err := plan.Pack(src, dst)
		if err != nil {
			t.Fatalf("iter %d (%v, kernel %v): plan pack: %v", iter, ty, plan.Kernel(), err)
		}
		if n != int64(len(want)) {
			t.Fatalf("iter %d (%v): plan packed %d bytes, cursor %d", iter, ty, n, len(want))
		}
		if !bytes.Equal(dst.Bytes(), want) {
			t.Fatalf("iter %d (%v, kernel %v, count %d): plan pack differs from cursor",
				iter, ty, plan.Kernel(), count)
		}

		// Unpack differential: both engines scatter the same packed
		// bytes into zeroed buffers; the full buffers must agree (this
		// also pins that neither engine writes outside the layout).
		cursorDst := buf.Alloc(bufLen)
		cursorUnpack(t, ty, cursorDst, count, want, rng)
		planDst := buf.Alloc(bufLen)
		if _, err := plan.Unpack(dst, planDst); err != nil {
			t.Fatalf("iter %d (%v): plan unpack: %v", iter, ty, err)
		}
		if !bytes.Equal(planDst.Bytes(), cursorDst.Bytes()) {
			t.Fatalf("iter %d (%v, kernel %v, count %d): plan unpack differs from cursor",
				iter, ty, plan.Kernel(), count)
		}
	}
}

// TestPackerResumeMidSegment pins the range contract: packed ranges
// cut at arbitrary, usually mid-segment, points each resume on the
// compiled-chunked tier, and the concatenated stream still equals the
// compiled one-shot output. Same for UnpackRange.
func TestPackerResumeMidSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBEEF))
	for iter := 0; iter < 200; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		bufLen := userBufLen(ty, count)
		src := buf.Alloc(bufLen)
		src.FillPattern(byte(iter * 7))

		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		oneShot := buf.Alloc(int(ty.PackSize(count)))
		if _, err := plan.Pack(src, oneShot); err != nil {
			t.Fatal(err)
		}

		// Pack a few partial ranges, then the rest in one range.
		var got []byte
		lo, total := int64(0), plan.Bytes()
		for i, partials := 0, rng.Intn(3)+1; i <= partials && lo < total; i++ {
			hi := total
			if i < partials && total-lo > 1 {
				hi = lo + max(1, rng.Int63n(total-lo)) // may split mid-segment
			}
			piece := buf.Alloc(int(hi - lo))
			if err := plan.PackRange(src, piece, lo, hi); err != nil {
				t.Fatal(err)
			}
			got = append(got, piece.Bytes()...)
			lo = hi
		}
		if !bytes.Equal(got, oneShot.Bytes()) {
			t.Fatalf("iter %d (%v): resumed stream differs from one-shot plan", iter, ty)
		}

		// Unpack the packed stream in two arbitrary ranges, compare
		// with the plan's one-shot scatter.
		planDst := buf.Alloc(bufLen)
		if _, err := plan.Unpack(oneShot, planDst); err != nil {
			t.Fatal(err)
		}
		streamDst := buf.Alloc(bufLen)
		var split int64
		if total > 1 {
			split = rng.Int63n(total-1) + 1
		}
		for _, r := range [][2]int64{{0, split}, {split, total}} {
			if err := plan.UnpackRange(oneShot.Slice(int(r[0]), int(r[1]-r[0])), streamDst, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(streamDst.Bytes(), planDst.Bytes()) {
			t.Fatalf("iter %d (%v): resumed unpack differs from one-shot plan", iter, ty)
		}
	}
}

// TestPackChunks pins the serial chunk loop over random types, counts,
// ranges, chunks and sum spans: its bytes are Plan.Pack's, sums[i] is
// ChecksumRange over span i, it attributes one chunk op per piece, or
// one whole execution when its one piece is the whole message, and
// with a virtual side it attributes what RecordChunks does.
func TestPackChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC4A2))
	for iter := 0; iter < 300; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		total := plan.Bytes()
		if total == 0 {
			continue
		}
		src := buf.Alloc(userBufLen(ty, count))
		src.FillPattern(byte(iter))
		want := buf.Alloc(int(total))
		if _, err := plan.Pack(src, want); err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(0), total
		if rng.Intn(2) == 0 {
			lo = rng.Int63n(total)
			hi = lo + 1 + rng.Int63n(total-lo)
		}
		chunk := 1 + rng.Int63n(hi-lo+8)
		span := chunk * (1 + rng.Int63n(3))
		if rng.Intn(3) == 0 {
			span = hi - lo
		}
		pieces := (hi - lo + chunk - 1) / chunk
		whole := lo == 0 && hi == total && pieces == 1
		sums := make([]uint64, (hi-lo+span-1)/span)
		dst := buf.Alloc(int(hi - lo))
		before := PlanStatsSnapshot()
		if err := plan.PackChunks(src, dst, lo, hi, chunk, span, sums); err != nil {
			t.Fatal(err)
		}
		d := PlanStatsSnapshot().Sub(before)
		what := fmt.Sprintf("iter %d (%v count=%d [%d,%d) chunk %d span %d)", iter, ty, count, lo, hi, chunk, span)
		if !bytes.Equal(dst.Bytes(), want.Bytes()[lo:hi]) {
			t.Fatalf("%s: bytes differ from Plan.Pack", what)
		}
		switch {
		case d.CompiledBytes() != hi-lo:
			t.Fatalf("%s: %d bytes attributed, want %d", what, d.CompiledBytes(), hi-lo)
		case whole && (d.CompiledOps() != 1 || d.ChunkOps != 0):
			t.Fatalf("%s: whole message not one execution: %v", what, d)
		case !whole && (d.ChunkOps != pieces || d.ChunkBytes != hi-lo):
			t.Fatalf("%s: %d chunk ops / %d bytes, want %d / %d", what, d.ChunkOps, d.ChunkBytes, pieces, hi-lo)
		}
		for i := range sums {
			a := lo + int64(i)*span
			var cs buf.Checksum
			plan.ChecksumRange(src, a, min(a+span, hi), &cs)
			if sums[i] != cs.Sum64() {
				t.Fatalf("%s: sum %d is %#x, ChecksumRange %#x", what, i, sums[i], cs.Sum64())
			}
		}

		if pieces == 1 {
			continue
		}
		before = PlanStatsSnapshot()
		plan.RecordChunks(lo, hi, chunk)
		rec := PlanStatsSnapshot().Sub(before)
		before = PlanStatsSnapshot()
		if err := plan.PackChunks(buf.Virtual(src.Len()), dst, lo, hi, chunk, span, sums); err != nil {
			t.Fatal(err)
		}
		if v := PlanStatsSnapshot().Sub(before); v != rec {
			t.Fatalf("%s: virtual source attributes %v, RecordChunks %v", what, v, rec)
		}
	}
}

// TestPlanParallelDifferential checks the plan executors against the
// cursor on large regular and irregular types: the whole-message path
// (serial below ParallelPackThreshold) and the goroutine-parallel
// executor at explicit worker counts.
func TestPlanParallelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFACADE))
	big := []*Type{
		mustType(Vector(300_000, 1, 2, Float64)),  // canonical every-other, 2.4 MB
		mustType(Vector(5_000, 64, 100, Float64)), // blocked vector, 2.56 MB
		func() *Type {
			displs := make([]int, 40_000)
			pos := 0
			for i := range displs {
				displs[i] = pos
				pos += 2 + rng.Intn(3)
			}
			return mustType(indexedBlock(2, displs, Float64)) // irregular, 640 KB
		}(),
	}
	for _, ty := range big {
		for _, count := range []int{1, 2} {
			bufLen := userBufLen(ty, count)
			src := buf.Alloc(bufLen)
			src.FillPattern(0x5A)

			plan, err := ty.CompilePlan(count)
			if err != nil {
				t.Fatal(err)
			}
			dst := buf.Alloc(int(ty.PackSize(count)))
			if _, err := plan.Pack(src, dst); err != nil {
				t.Fatal(err)
			}
			want := cursorPack(t, ty, src, count, rng)
			if !bytes.Equal(dst.Bytes(), want) {
				t.Fatalf("%v count=%d: parallel pack differs from cursor", ty, count)
			}

			planDst := buf.Alloc(bufLen)
			if _, err := plan.Unpack(dst, planDst); err != nil {
				t.Fatal(err)
			}
			cursorDst := buf.Alloc(bufLen)
			cursorUnpack(t, ty, cursorDst, count, want, rng)
			if !bytes.Equal(planDst.Bytes(), cursorDst.Bytes()) {
				t.Fatalf("%v count=%d: parallel unpack differs from cursor", ty, count)
			}

			// Force the multi-range split regardless of GOMAXPROCS and
			// the message size.
			for _, w := range []int{2, 3, 7} {
				forced := buf.Alloc(int(ty.PackSize(count)))
				plan.runParallelN(src, forced, packDirection, w)
				if !bytes.Equal(forced.Bytes(), want) {
					t.Fatalf("%v count=%d workers=%d: forced parallel pack differs from cursor", ty, count, w)
				}
				forcedDst := buf.Alloc(bufLen)
				plan.runParallelN(forcedDst, forced, unpackDirection, w)
				if !bytes.Equal(forcedDst.Bytes(), cursorDst.Bytes()) {
					t.Fatalf("%v count=%d workers=%d: forced parallel unpack differs from cursor", ty, count, w)
				}
			}
		}
	}
}

// TestPlanRunRangeDifferential drives the kernels' mid-stream entry
// directly: the packed range [0, total) is cut at random points and
// executed piecewise through Plan.run, which must reproduce the
// cursor's stream exactly — this is the machinery the parallel
// splitter relies on, exercised deterministically for every kernel.
func TestPlanRunRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1CE))
	for iter := 0; iter < 200; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		bufLen := userBufLen(ty, count)
		src := buf.Alloc(bufLen)
		src.FillPattern(byte(iter * 3))
		want := cursorPack(t, ty, src, count, rng)

		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		total := plan.Bytes()
		// Random ascending cut points, deliberately unaligned.
		cuts := []int64{0}
		for c := int64(0); c < total; {
			c += rng.Int63n(total/4+1) + 1
			if c > total {
				c = total
			}
			cuts = append(cuts, c)
		}
		dst := buf.Alloc(int(total))
		for i := 0; i+1 < len(cuts); i++ {
			plan.runRange(src, dst, cuts[i], cuts[i+1], 0, packDirection, nil)
		}
		if !bytes.Equal(dst.Bytes(), want) {
			t.Fatalf("iter %d (%v, kernel %v): piecewise run differs from cursor (cuts %v)",
				iter, ty, plan.Kernel(), cuts)
		}

		// Unpack direction through the same cuts.
		back := buf.Alloc(bufLen)
		for i := 0; i+1 < len(cuts); i++ {
			plan.runRange(back, dst, cuts[i], cuts[i+1], 0, unpackDirection, nil)
		}
		cursorDst := buf.Alloc(bufLen)
		cursorUnpack(t, ty, cursorDst, count, want, rng)
		if !bytes.Equal(back.Bytes(), cursorDst.Bytes()) {
			t.Fatalf("iter %d (%v, kernel %v): piecewise unpack differs from cursor", iter, ty, plan.Kernel())
		}
	}
}

// TestPlanKernelSelection pins the compiler's kernel-selection rules.
func TestPlanKernelSelection(t *testing.T) {
	cases := []struct {
		name   string
		ty     *Type
		count  int
		kernel PlanKernel
	}{
		{"basic", Float64, 4, KernelContig},
		{"contiguous", mustType(Contiguous(13, Float64)), 3, KernelContig},
		{"dense vector", mustType(Vector(10, 4, 4, Float64)), 2, KernelContig},
		{"vector", mustType(Vector(10, 1, 2, Float64)), 1, KernelStride},
		{"vector multi", mustType(Vector(10, 1, 2, Float64)), 3, KernelStride},
		{"subarray row", mustType(Subarray([]int{4, 8}, []int{1, 3}, []int{2, 1}, OrderC, Float64)), 1, KernelContig},
		{"subarray block", mustType(Subarray([]int{4, 8}, []int{2, 3}, []int{1, 1}, OrderC, Float64)), 1, KernelStride},
		{"indexed", mustType(Indexed([]int{2, 1, 3}, []int{0, 4, 8}, Float64)), 1, KernelGather},
		{"struct", mustType(Struct([]int{1, 2}, []int64{0, 8}, []*Type{Int32, Float64})), 2, KernelGather},
	}
	for _, c := range cases {
		plan, err := c.ty.CompilePlan(c.count)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Kernel() != c.kernel {
			t.Errorf("%s: kernel = %v, want %v", c.name, plan.Kernel(), c.kernel)
		}
		if plan.Bytes() != c.ty.PackSize(c.count) {
			t.Errorf("%s: plan bytes = %d, want %d", c.name, plan.Bytes(), c.ty.PackSize(c.count))
		}
	}
}

// TestPlanStatsCounters checks that executions are attributed to the
// right counters: compiled kernels for whole-message calls and the
// compiled-chunked tier for streaming.
func TestPlanStatsCounters(t *testing.T) {
	ty := mustType(Vector(1000, 1, 2, Float64))
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(3)
	dst := buf.Alloc(int(ty.Size()))

	before := PlanStatsSnapshot()
	if _, err := ty.Pack(src, 1, dst); err != nil {
		t.Fatal(err)
	}
	d := PlanStatsSnapshot().Sub(before)
	if d.StrideOps != 1 || d.StrideBytes != ty.Size() {
		t.Fatalf("stride delta = %+v, want 1 op / %d bytes", d, ty.Size())
	}
	if d.ChunkOps != 0 {
		t.Fatalf("whole-message pack attributed to the chunk tier: %+v", d)
	}

	// Chunked streaming runs on the compiled kernels.
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	before = PlanStatsSnapshot()
	if err := plan.PackChunks(src, dst, 0, plan.Bytes(), 128, 0, nil); err != nil {
		t.Fatal(err)
	}
	d = PlanStatsSnapshot().Sub(before)
	if d.ChunkOps == 0 || d.ChunkBytes != ty.Size() {
		t.Fatalf("chunked stream not attributed to the compiled-chunked tier: %+v", d)
	}
	if d.StrideBytes != ty.Size() {
		t.Fatalf("chunked stream not attributed to the stride kernel: %+v", d)
	}
}

// TestPlanVirtualCountsWithoutMoving pins the virtual-payload
// contract on the plan path: full size reported, no bytes moved.
func TestPlanVirtualCountsWithoutMoving(t *testing.T) {
	ty := mustType(Vector(1000, 1, 2, Float64))
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	dst := buf.Alloc(int(ty.Size()))
	dst.FillPattern(9)
	n, err := plan.Pack(buf.Virtual(int(ty.Extent())), dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != ty.Size() {
		t.Fatalf("virtual plan pack = %d, want %d", n, ty.Size())
	}
	if err := oracle.VerifyPattern(dst, 9); err != nil {
		t.Fatalf("virtual plan pack wrote data: %v", err)
	}
}

// TestPlanErrors pins the validation surface.
func TestPlanErrors(t *testing.T) {
	ty, err := Vector(10, 1, 2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ty.CompilePlan(1); err != ErrNotCommitted {
		t.Fatalf("uncommitted compile: %v", err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := ty.CompilePlan(-1); err == nil {
		t.Fatal("negative count accepted")
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Pack(buf.Alloc(int(ty.Extent())), buf.Alloc(4)); err == nil {
		t.Fatal("truncated destination accepted")
	}
	if _, err := plan.Pack(buf.Alloc(4), buf.Alloc(int(ty.Size()))); err == nil {
		t.Fatal("undersized source accepted")
	}
	if _, err := plan.Unpack(buf.Alloc(4), buf.Alloc(int(ty.Extent()))); err == nil {
		t.Fatal("truncated packed source accepted")
	}

	// The summed moves check their chunk, span and sum slots before
	// they move: no division by a zero span, no write past the last
	// slot, no restart of the running sum inside a chunk.
	src, dst, n := buf.Alloc(int(ty.Extent())), buf.Alloc(int(ty.Size())), plan.Bytes()
	fused := func(span int64, sums []uint64) error {
		_, err := FusedCopySum(plan, plan, src, buf.Alloc(int(ty.Extent())), span, sums)
		return err
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"PackRangeSum span 0", plan.PackRangeSum(src, dst, 0, n, 0, make([]uint64, 1))},
		{"PackRangeSum negative span", plan.PackRangeSum(src, dst, 0, n, -8, make([]uint64, 1))},
		{"PackRangeSum short sums", plan.PackRangeSum(src, dst, 0, n, 8, make([]uint64, 9))},
		{"FusedCopySum span 0", fused(0, make([]uint64, 1))},
		{"FusedCopySum short sums", fused(16, make([]uint64, 4))},
		{"PackChunks chunk 0", plan.PackChunks(src, dst, 0, n, 0, 0, nil)},
		{"PackChunks span 0", plan.PackChunks(src, dst, 0, n, 16, 0, make([]uint64, 1))},
		{"PackChunks short sums", plan.PackChunks(src, dst, 0, n, 16, 16, make([]uint64, 4))},
		{"PackChunks span inside a chunk", plan.PackChunks(src, dst, 0, n, 16, 24, make([]uint64, 4))},
		{"StageChunks negative span", plan.StageChunks(plan, src, buf.Alloc(int(ty.Extent())), 0, n, 16, -16, make([]uint64, 1), 0)},
	} {
		if !errors.Is(c.err, ErrArgument) {
			t.Errorf("%s: %v, want ErrArgument", c.name, c.err)
		}
	}
}

// runLenElem returns the basic type and block length that make a
// vector block of runLen bytes.
func runLenElem(runLen int) (*Type, int) {
	if runLen%8 == 0 {
		return Float64, runLen / 8
	}
	return Float32, runLen / 4
}

// TestStrideAndBlockAllRunLengths drives the stride and block programs
// over every run-length class of the batch kernel — the 4/8/16-byte and
// 8·m-byte word paths, 12 bytes (per-run copyRun) and 264 bytes (the
// memmove side of longRunCopy) — with rows that are not a multiple of
// the kernel's 4× unroll. Small instances execute every packed range
// [lo, hi) — sampled, past 256 bytes, as checkEveryRange describes — so
// every leading/trailing partial run, row remainder and whole-row tile
// boundary is entered; large ones, and the small ones at count 1000
// (count is the form's outermost level, so a batch spans instances),
// execute whole through worker splits. PackRange and UnpackRange must
// agree with the interpreting cursor, byte for byte, and write nothing
// else. The resized shape's extent is shorter than its span: instance
// i+1 fills the gaps of instance i, so the rows of one batch across
// instances interleave in the user buffer.
func TestStrideAndBlockAllRunLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57A1D))
	for _, runLen := range []int{4, 8, 12, 16, 24, 32, 64, 264} {
		elem, bl := runLenElem(runLen)
		// Pitches that keep a row off the previous row's continuation
		// and a plane off the previous plane's, which would flatten the
		// nest back to one stride level.
		rowPad, planePad := int64(runLen+24), int64(runLen+72)
		shapes := []struct {
			name   string
			kernel PlanKernel
			build  func(runs, rows int) *Type
		}{
			{"vector", KernelStride, func(runs, rows int) *Type {
				return mustType(Vector(runs*rows, bl, bl+1, elem))
			}},
			{"block2d", KernelBlock, func(runs, rows int) *Type {
				in := mustType(Vector(runs, bl, 2*bl, elem))
				return mustType(Hvector(rows, 1, in.TrueExtent()+rowPad, in))
			}},
			{"block3d", KernelBlock, func(runs, rows int) *Type {
				in := mustType(Vector(runs, bl, 2*bl, elem))
				mid := mustType(Hvector(rows, 1, in.TrueExtent()+rowPad, in))
				return mustType(Hvector(2, 1, mid.TrueExtent()+planePad, mid))
			}},
			{"resized", KernelStride, func(runs, rows int) *Type {
				// With an odd run count n, instance i+1 starts n run
				// lengths on: in the gaps of instance i, while instance
				// i+2 starts past its end.
				n := runs*rows | 1
				v := mustType(Vector(n, bl, 2*bl, elem))
				return mustType(Resized(v, 0, int64(n*runLen)))
			}},
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%dB", sh.name, runLen), func(t *testing.T) {
				// Small: 5 runs a row (4× unroll plus one), 3 rows, 2 instances.
				small := sh.build(5, 3)
				checkEveryRange(t, small, 2, sh.kernel, int64(runLen), rng)
				if plan, _ := small.CompilePlan(2); sh.name == "resized" && plan.FusedDstSafe() {
					t.Fatalf("%v: instances do not interleave", small)
				}
				checkWorkerSplits(t, small, 1000, sh.kernel, rng)
				// Large: 7 runs a row, enough rows for ≥ 64 KiB.
				large := sh.build(7, 1+(64<<10)/(7*runLen))
				checkWorkerSplits(t, large, 2, sh.kernel, rng)
			})
		}
	}
}

// TestCountIsOutermostLevel pins how a plan binds count: a count-1000
// message of a 4-run vector is one form whose outermost level is the
// count at a stride of the extent, so the executor moves it as one
// copyRunGroups batch of 1000 rows rather than 1000 batches.
func TestCountIsOutermostLevel(t *testing.T) {
	ty := mustType(Vector(4, 1, 2, Float64))
	plan, err := ty.CompilePlan(1000)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.form
	if f.dims != 2 || f.cnt[0] != 4 || f.str[0] != 16 || f.runLen != 8 {
		t.Fatalf("inner level %+v, want 4 runs of 8 B at stride 16", f)
	}
	if f.cnt[1] != 1000 || f.str[1] != ty.Extent() {
		t.Fatalf("outermost level (%d, %d), want (1000, %d)", f.cnt[1], f.str[1], ty.Extent())
	}
}

// checkEveryRange executes packed ranges [lo, hi) of (count × ty)
// through PackRange and UnpackRange, against the cursor. A stream of at
// most 256 bytes is cut at every byte position and executes every
// range. A longer one is cut at each run boundary, its two neighbours
// and the run's middle; every cut is a lo, and its hi are the next
// eight cuts (every way to end within the next two runs), every
// thirteenth cut after them (ends in later rows, planes and instances)
// and the end of the stream.
func checkEveryRange(t *testing.T, ty *Type, count int, kernel PlanKernel, runLen int64, rng *rand.Rand) {
	t.Helper()
	plan, err := ty.CompilePlan(count)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != kernel {
		t.Fatalf("%v compiled to %v, want %v", ty, plan.Kernel(), kernel)
	}
	total := plan.Bytes()
	every := total <= 256
	var cuts []int64
	for p := int64(0); p <= total; p++ {
		if r := p % runLen; every || r <= 1 || r == runLen-1 || r == runLen/2 {
			cuts = append(cuts, p)
		}
	}
	bufLen := userBufLen(ty, count)
	src := buf.Alloc(bufLen)
	src.FillPattern(0x3C)
	want := cursorPack(t, ty, src, count, rng)
	junk := bytes.Repeat([]byte{0xEE}, bufLen)
	sentinel := bytes.Repeat([]byte{0xCC}, int(total)+8)
	stream := make([]byte, len(sentinel))
	got, exp := buf.Alloc(bufLen), buf.Alloc(bufLen)
	for i, lo := range cuts {
		for j := i; j < len(cuts); j++ {
			if !every && j > i+8 && (j-i)%13 != 0 && j != len(cuts)-1 {
				continue
			}
			hi := cuts[j]
			copy(stream, sentinel)
			if err := plan.PackRange(src, buf.FromBytes(stream), lo, hi); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stream[:hi-lo], want[lo:hi]) {
				t.Fatalf("%v: PackRange [%d,%d) differs from cursor", ty, lo, hi)
			}
			if !bytes.Equal(stream[hi-lo:], sentinel[hi-lo:]) {
				t.Fatalf("%v: PackRange [%d,%d) wrote past the range", ty, lo, hi)
			}
			copy(got.Bytes(), junk)
			copy(exp.Bytes(), junk)
			if err := plan.UnpackRange(buf.FromBytes(want[lo:hi]), got, lo, hi); err != nil {
				t.Fatal(err)
			}
			c := newCursor(ty, exp, count)
			c.skip(lo)
			if _, err := c.transfer(buf.FromBytes(want[lo:hi]), unpackDirection); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), exp.Bytes()) {
				t.Fatalf("%v: UnpackRange [%d,%d) differs from cursor", ty, lo, hi)
			}
		}
	}
}

// checkWorkerSplits executes (count × ty) whole through 1, 2, 3 and 7
// workers in both directions, against the cursor.
func checkWorkerSplits(t *testing.T, ty *Type, count int, kernel PlanKernel, rng *rand.Rand) {
	t.Helper()
	plan, err := ty.CompilePlan(count)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel() != kernel {
		t.Fatalf("%v compiled to %v, want %v", ty, plan.Kernel(), kernel)
	}
	bufLen := userBufLen(ty, count)
	src := buf.Alloc(bufLen)
	src.FillPattern(0x71)
	want := cursorPack(t, ty, src, count, rng)
	exp := buf.Alloc(bufLen)
	exp.FillPattern(0xEE)
	cursorUnpack(t, ty, exp, count, want, rng)
	for _, w := range []int{1, 2, 3, 7} {
		packed := buf.Alloc(int(plan.Bytes()))
		plan.runParallelN(src, packed, packDirection, w)
		if !bytes.Equal(packed.Bytes(), want) {
			t.Fatalf("%v workers=%d: pack differs from cursor", ty, w)
		}
		got := buf.Alloc(bufLen)
		got.FillPattern(0xEE)
		plan.runParallelN(got, packed, unpackDirection, w)
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("%v workers=%d: unpack differs from cursor", ty, w)
		}
	}
}
