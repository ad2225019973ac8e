package datatype

import (
	"bytes"
	"testing"

	"repro/internal/buf"
)

// sumOf is the oracle of every folded move: the checksum of packed
// bytes, entered from a fresh state.
func sumOf(packed []byte) uint64 { return buf.ChecksumOf(buf.FromBytes(packed)) }

// FuzzFoldedMove pins the moves that fold a checksum while they move
// against the two-pass form they replace, over fuzzed layouts (count
// > 1, so ranges cross instance rollovers), arbitrary packed ranges —
// mid-run cuts included — and sum spans: a folded PackRange equals
// PackRange plus ChecksumRange per piece, PackChunks folding a running
// checksum through fuzz-sized chunks, restarted every chunk or run over
// the whole stream, equals ChecksumRange per span, and so do the sums
// of the staged move, whose layout equals PackRange plus UnpackRange;
// and the folded fused copy equals FusedCopy plus ChecksumRange per
// piece at one, two and three workers.
func FuzzFoldedMove(f *testing.F) {
	// A first type, then range cut, span, chunk and worker draws, then the
	// receiver type of the fused and staged pairs.
	f.Add([]byte{2, 1, 1, 29, 0, 1, 0, 7, 8, 40, 8, 15, 1, 2, 1, 1, 7, 3, 4, 1})        // vector(30,1,2,f64) -> vector(8,4,8,f64): the bench pair
	f.Add([]byte{2, 1, 1, 8, 1, 3, 2, 11, 3, 90, 5, 6, 2, 2, 1, 0, 12, 1})              // vector(9,2,5) -> contiguous, cuts mid-run
	f.Add([]byte{2, 1, 2, 6, 0, 16, 1, 5, 17, 200, 8, 23, 0, 2, 1, 1, 5, 2, 4, 1})      // hvector -> vector
	f.Add([]byte{2, 1, 3, 2, 1, 0, 0, 2, 2, 1, 30, 30, 16, 9, 3, 2, 1, 1, 6, 1, 2, 2})  // indexed -> vector
	f.Add([]byte{2, 1, 6, 5, 5, 2, 3, 1, 29, 1, 250, 32, 31, 1, 2, 1, 6, 4, 6, 1, 2})   // subarray -> subarray
	f.Add([]byte{2, 6, 1, 8, 1, 3, 2, 11, 40, 40, 24, 12, 2, 2, 6, 2, 6, 0, 16, 1})     // resized vector -> resized hvector
	f.Add([]byte{1, 1, 1, 1, 0, 20, 2, 1, 9, 2, 77, 4, 4, 0, 1, 1, 1, 1, 0, 9, 1})      // int32 runs: no whole word
	f.Add([]byte{3, 1, 1, 1, 0, 22, 1, 2, 5, 8, 130, 16, 48, 1, 3, 1, 1, 1, 0, 5, 1})   // complex128: two-word runs
	f.Add([]byte{2, 0, 2, 1, 1, 3, 5, 4, 1, 2, 0, 3, 40, 1, 7, 0, 255, 64, 64, 1, 2})   // block2d of 32-byte runs
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1})                                // byte-element vector, one-byte pieces
	f.Add([]byte{3, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1, 5, 60, 7, 3, 2, 0, 1, 3, 1, 1, 0, 1}) // nested indexed over a derived base

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		ty := decodeType(d, 1)
		if ty == nil {
			t.Skip("draw encodes invalid constructor arguments")
		}
		count := d.intn(3) + 2
		seed := d.byte()
		total := ty.PackSize(count)
		if total == 0 {
			t.Skip("empty message")
		}
		src := buf.Alloc(userBufLen(ty, count))
		src.FillPattern(seed)
		packedBlock := buf.Alloc(int(total))
		if _, err := ty.Pack(src, count, packedBlock); err != nil {
			t.Fatal(err)
		}
		packed := packedBlock.Bytes()
		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		// pieceSums checks sums against both oracles piece by piece.
		pieceSums := func(what string, p *Plan, lo, hi, span int64, sums []uint64) {
			t.Helper()
			for a := lo; a < hi; a += span {
				b := min(a+span, hi)
				var cs buf.Checksum
				p.ChecksumRange(src, a, b, &cs)
				if got := sums[(a-lo)/span]; got != cs.Sum64() || got != sumOf(packed[a:b]) {
					t.Fatalf("%s: sum of [%d,%d) is %#x, ChecksumRange %#x, Write %#x (%v count=%d %s)",
						what, a, b, got, cs.Sum64(), sumOf(packed[a:b]), ty, count, ty.CanonicalString())
				}
			}
		}

		// Folded PackRange over an arbitrary cut and span.
		lo := int64(d.byte()) % total
		hi := lo + 1 + int64(d.byte())%(total-lo)
		span := 1 + int64(d.byte())%(hi-lo)
		stream := buf.Alloc(int(hi - lo))
		sums := make([]uint64, (hi-lo+span-1)/span)
		if err := plan.PackRangeSum(src, stream, lo, hi, span, sums); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream.Bytes(), packed[lo:hi]) {
			t.Fatalf("PackRangeSum [%d,%d) moved other bytes than PackRange (%v count=%d)", lo, hi, ty, count)
		}
		pieceSums("PackRangeSum", plan, lo, hi, span, sums)

		// The serial chunk loop, its running checksum restarted every
		// chunk and run over the whole stream.
		chunk := int64(d.byte()) + 1
		for _, sumSpan := range []int64{chunk, total} {
			drained := buf.Alloc(int(total))
			sums := make([]uint64, (total+sumSpan-1)/sumSpan)
			if err := plan.PackChunks(src, drained, 0, total, chunk, sumSpan, sums); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(drained.Bytes(), packed) {
				t.Fatalf("PackChunks in %d-byte chunks: stream differs (%v count=%d)", chunk, ty, count)
			}
			pieceSums("PackChunks", plan, 0, total, sumSpan, sums)
		}

		// The staged move's fan-out, drawn here so the corpus keeps its
		// byte order; it runs once the receiver type is known.
		workers := d.intn(4) + 1

		// The folded fused copy, with the explicit fan-out so that the
		// piece-aligned split is exercised on any host.
		dstTy := decodeType(d, 1)
		if dstTy == nil {
			return
		}
		dstCount := d.intn(3) + 2
		dstPlan, err := dstTy.CompilePlan(dstCount)
		if err != nil {
			t.Fatal(err)
		}
		both := min(total, dstPlan.Bytes())
		if !dstPlan.FusedDstSafe() || both == 0 {
			return
		}
		// The staged move, each chunk summed alone and the range as one,
		// against PackRange then UnpackRange into the receiver's layout.
		staged := buf.Alloc(userBufLen(dstTy, dstCount))
		if err := dstPlan.UnpackRange(buf.FromBytes(packed[:both]), staged, 0, both); err != nil {
			t.Fatal(err)
		}
		for _, sumSpan := range []int64{chunk, both} {
			got := buf.Alloc(staged.Len())
			sums := make([]uint64, (both+sumSpan-1)/sumSpan)
			if err := plan.stageChunks(dstPlan, src, got, 0, both, chunk, sumSpan, sums, 0, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), staged.Bytes()) {
				t.Fatalf("StageChunks in %d-byte chunks at %d workers: layout differs from PackRange+UnpackRange (%v count=%d -> %v count=%d)",
					chunk, workers, ty, count, dstTy, dstCount)
			}
			pieceSums("StageChunks", plan, 0, both, sumSpan, sums)
		}

		want := buf.Alloc(userBufLen(dstTy, dstCount))
		if _, err := FusedCopy(plan, dstPlan, src, want); err != nil {
			t.Fatal(err)
		}
		span = 1 + int64(d.byte())%both
		for w := 1; w <= 3; w++ {
			got := buf.Alloc(want.Len())
			sums := make([]uint64, (both+span-1)/span)
			fusedExec(plan, dstPlan, src, got, both, w, span, sums)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("summed fused copy, %d workers, span %d: differs from FusedCopy (%v count=%d -> %v count=%d)",
					w, span, ty, count, dstTy, dstCount)
			}
			pieceSums("FusedCopySum", plan, 0, both, span, sums)
		}
		got := buf.Alloc(want.Len())
		sums = make([]uint64, (both+span-1)/span)
		if n, err := FusedCopySum(plan, dstPlan, src, got, span, sums); err != nil || n != both {
			t.Fatalf("FusedCopySum: %d bytes, %v", n, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("FusedCopySum differs from FusedCopy (%v count=%d -> %v count=%d)", ty, count, dstTy, dstCount)
		}
		pieceSums("FusedCopySum", plan, 0, both, span, sums)
	})
}
