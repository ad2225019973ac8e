package datatype

import (
	"bytes"
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
)

// fuzzDecoder turns a fuzz byte string into bounded constructor
// arguments: a deterministic mapping so every corpus entry is a
// reproducible (type, count, seed) triple.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// intn returns a value in [0, n).
func (d *fuzzDecoder) intn(n int) int { return int(d.byte()) % n }

// decodeType builds a committed type from the fuzz stream, recursing
// one level for nested indexed/struct-of-vector shapes. It returns nil
// when the stream encodes invalid constructor arguments (those draws
// are skipped, not failed: rejecting them is the constructors' job and
// covered by unit tests).
func decodeType(d *fuzzDecoder, depth int) *Type {
	base := []*Type{Byte, Int32, Float64, Complex128}[d.intn(4)]
	if depth > 0 && d.intn(4) == 0 {
		base = decodeType(d, depth-1)
		if base == nil {
			return nil
		}
	}
	if d.intn(5) == 0 {
		// Resized base: pad the extent past the true span, so every
		// constructor is exercised over a base whose extent disagrees
		// with its payload (the dense-base-assumption class).
		rz, err := Resized(base, 0, base.TrueExtent()+int64(d.intn(16)))
		if err != nil {
			return nil
		}
		base = rz
	}
	var ty *Type
	var err error
	switch d.intn(8) {
	case 0:
		ty, err = Contiguous(d.intn(8)+1, base)
	case 1:
		bl := d.intn(4) + 1
		ty, err = Vector(d.intn(30)+1, bl, bl+d.intn(5), base)
	case 2:
		bl := d.intn(3) + 1
		ty, err = Hvector(d.intn(20)+1, bl, int64(bl)*base.Extent()+int64(d.intn(32)), base)
	case 3:
		n := d.intn(6) + 1
		blocklens := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			blocklens[i] = d.intn(4) + 1
			displs[i] = pos
			pos += blocklens[i] + d.intn(5)
		}
		ty, err = Indexed(blocklens, displs, base)
	case 4:
		bl := d.intn(3) + 1
		n := d.intn(6) + 1
		displs := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			displs[i] = pos
			pos += bl + d.intn(5)
		}
		ty, err = IndexedBlock(bl, displs, base)
	case 5:
		fields := []*Type{Int32, base, Float64}
		blocklens := make([]int, len(fields))
		displs := make([]int64, len(fields))
		var pos int64
		for i, f := range fields {
			blocklens[i] = d.intn(3) + 1
			displs[i] = pos
			pos += int64(blocklens[i])*f.Extent() + int64(d.intn(9))
		}
		ty, err = Struct(blocklens, displs, fields)
	case 6:
		rows, cols := d.intn(6)+1, d.intn(8)+1
		sr, sc := d.intn(rows), d.intn(cols)
		ty, err = Subarray([]int{rows, cols}, []int{rows - sr, cols - sc}, []int{sr, sc}, OrderC, base)
	case 7:
		// 3-D subarray with strictly partial rows: the
		// subarray-of-contiguous family the normalizer collapses into a
		// block form, exercised here over every base element.
		planes, rows, cols := d.intn(3)+1, d.intn(4)+1, d.intn(6)+2
		sp, sr := d.intn(planes), d.intn(rows)
		sc := d.intn(cols-1) + 1
		ty, err = Subarray([]int{planes, rows, cols},
			[]int{planes - sp, rows - sr, cols - sc},
			[]int{sp, sr, sc}, OrderC, base)
	}
	if err != nil {
		return nil
	}
	if err := ty.Commit(); err != nil {
		return nil
	}
	return ty
}

// FuzzPackRoundtrip fuzzes the Pack→Unpack roundtrip over
// indexed/struct/nested types through the compiled-plan path and
// cross-checks the packed bytes against the interpreting cursor. The
// seed corpus encodes the constructor cases of pack_test.go.
func FuzzPackRoundtrip(f *testing.F) {
	// Corpus: first byte pair selects base/nesting, then constructor
	// selector and parameters; trailing bytes are count and fill seed.
	f.Add([]byte{2, 1, 0, 12, 1, 7})               // contiguous(13, Float64)
	f.Add([]byte{2, 1, 1, 8, 1, 3, 2, 11})         // vector(9,2,5)
	f.Add([]byte{2, 1, 2, 6, 0, 16, 1, 5})         // hvector
	f.Add([]byte{2, 1, 3, 2, 1, 0, 0, 2, 2, 1})    // indexed
	f.Add([]byte{2, 1, 4, 1, 2, 0, 4, 3, 13})      // indexed block
	f.Add([]byte{2, 1, 5, 0, 1, 0, 1, 0, 2, 17})   // struct
	f.Add([]byte{2, 1, 6, 5, 5, 2, 3, 1, 29})      // subarray
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0})          // byte-element vector
	f.Add([]byte{3, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1}) // nested indexed over a derived base
	// Fused sender/receiver pairs: a first type, count and seed, then
	// chunk splits, then a second type for the fused differential.
	f.Add([]byte{2, 1, 1, 8, 1, 3, 2, 11, 40, 40, 2, 1, 1, 5, 2, 4, 1})      // vector -> vector, different stride
	f.Add([]byte{2, 1, 1, 8, 1, 3, 2, 11, 40, 40, 2, 1, 0, 12, 1})           // vector -> contiguous
	f.Add([]byte{2, 1, 3, 2, 1, 0, 0, 2, 2, 1, 30, 30, 2, 1, 1, 6, 1, 2, 2}) // indexed -> vector
	f.Add([]byte{2, 1, 0, 12, 1, 7, 25, 25, 2, 1, 3, 2, 1, 0, 0, 2, 2})      // contiguous -> indexed
	f.Add([]byte{2, 6, 1, 8, 1, 3, 2, 11, 40, 40, 2, 6, 2, 6, 0, 16, 1})     // resized vector -> resized hvector
	// Pipelined chunk splits: the trailing byte pair after the chunked
	// splits draws the slot-ring chunk size and depth.
	f.Add([]byte{2, 1, 1, 8, 1, 3, 2, 11, 16, 16, 16, 16, 0, 1})     // vector through 1-byte chunks, depth 2
	f.Add([]byte{2, 1, 3, 2, 1, 0, 0, 2, 2, 1, 9, 9, 9, 9, 6, 3})    // indexed through 7-byte chunks, depth 4
	f.Add([]byte{2, 6, 1, 8, 1, 3, 2, 11, 12, 12, 12, 12, 254, 0})   // resized vector through 255-byte chunks, depth 1
	f.Add([]byte{3, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1, 8, 8, 8, 8, 2, 2}) // nested indexed, 3-byte chunks
	// Normalizer shapes: hvector-of-vector (the 2-D canonical block
	// family) and a 3-D subarray with strictly partial rows, so the
	// on/off differential below covers the collapsed kernels.
	f.Add([]byte{2, 0, 2, 1, 1, 7, 0, 1, 1, 2, 0, 5, 16, 0, 7}) // hvector(6) of vector(8,1,2,f64), broken pitch
	f.Add([]byte{2, 1, 1, 7, 1, 2, 4, 0, 0, 1, 0, 11})          // subarray [2,3,6]->[2,3,4] partial rows
	// Every word path of the batch run kernel (copyRunGroups): 4-, 16-
	// and 32-byte runs as one stride level and as 2-D block forms.
	f.Add([]byte{1, 1, 1, 1, 0, 20, 2, 1, 9})                   // vector(21,1,3,int32): 21×4B step 12
	f.Add([]byte{3, 1, 1, 1, 0, 22, 1, 2, 5})                   // vector(23,1,2,complex128): 23×16B step 32
	f.Add([]byte{2, 1, 1, 1, 3, 18, 3, 1, 3})                   // vector(19,4,7,f64): 19×32B step 56
	f.Add([]byte{1, 0, 1, 1, 1, 0, 6, 1, 1, 2, 0, 4, 12, 1, 7}) // hvector(5) of vector(7,1,2,int32): block2d 7×4B
	f.Add([]byte{3, 0, 3, 1, 1, 0, 4, 1, 1, 2, 0, 3, 24, 2, 7}) // hvector(4) of vector(5,1,2,complex128): block2d 5×16B
	f.Add([]byte{2, 0, 2, 1, 1, 3, 5, 4, 1, 2, 0, 3, 40, 1, 7}) // hvector(4) of vector(6,4,8,f64): block2d 6×32B
	// Fused pairs with a block form on either side, moved by the strided
	// pair kernel: a first type, count and seed, 100-byte chunk and
	// unpack splits, a 64-byte pipeline at depth 2, then the receiver
	// type and count.
	f.Add([]byte{1, 0, 1, 1, 1, 0, 6, 1, 1, 2, 0, 4, 12, 1, 7, 99, 99, 99, 99, 99, 99, 63, 1,
		1, 1, 1, 1, 0, 20, 2, 0}) // block2d 7×4B ×2 -> vector(21,1,3,int32)
	f.Add([]byte{3, 1, 1, 1, 0, 22, 1, 0, 7, 99, 99, 99, 99, 99, 99, 99, 99, 63, 1,
		2, 0, 2, 1, 1, 3, 5, 4, 1, 2, 0, 3, 40, 2}) // vector(23,1,2,complex128) -> block2d 6×32B ×3
	f.Add([]byte{3, 0, 3, 1, 1, 0, 4, 1, 1, 2, 0, 3, 24, 1, 7, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 63, 1,
		2, 0, 2, 1, 1, 3, 5, 4, 1, 2, 0, 3, 40, 1}) // block2d 5×16B ×2 -> block2d 6×32B ×2
	f.Add([]byte{2, 1, 1, 1, 3, 18, 3, 0, 7, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 63, 1,
		3, 0, 3, 1, 1, 0, 4, 1, 1, 2, 0, 3, 24, 0}) // vector(19,4,7,f64) -> block2d 5×16B

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		ty := decodeType(d, 1)
		if ty == nil {
			t.Skip("draw encodes invalid constructor arguments")
		}
		count := d.intn(3) + 1
		seed := d.byte()

		bufLen := userBufLen(ty, count)
		src := buf.Alloc(bufLen)
		src.FillPattern(seed)

		// Compiled pack.
		packed := buf.Alloc(int(ty.PackSize(count)))
		n, err := ty.Pack(src, count, packed)
		if err != nil {
			t.Fatalf("pack (%v): %v", ty, err)
		}
		if n != ty.PackSize(count) {
			t.Fatalf("pack (%v): %d bytes, want %d", ty, n, ty.PackSize(count))
		}

		// Differential: the cursor must produce the identical stream.
		c := newCursor(ty, src, count)
		oracle := buf.Alloc(int(ty.PackSize(count)))
		if _, err := c.transfer(oracle, packDirection); err != nil {
			t.Fatalf("cursor pack (%v): %v", ty, err)
		}
		if !bytes.Equal(packed.Bytes(), oracle.Bytes()) {
			t.Fatalf("compiled pack differs from cursor for %v count=%d", ty, count)
		}

		// Chunked differential: stream the same message through
		// Packer/Unpacker in fuzz-chosen split sizes — the
		// compiled-chunked tier — and require the identical stream and
		// the identical scatter.
		p, err := ty.NewPacker(src, count)
		if err != nil {
			t.Fatalf("packer (%v): %v", ty, err)
		}
		streamed := make([]byte, 0, len(packed.Bytes()))
		for p.Remaining() > 0 {
			n := int64(d.byte()) + 1
			if n > p.Remaining() {
				n = p.Remaining()
			}
			piece := buf.Alloc(int(n))
			m, err := p.Pack(piece)
			if err != nil {
				t.Fatalf("chunked pack (%v): %v", ty, err)
			}
			streamed = append(streamed, piece.Bytes()[:m]...)
		}
		if !bytes.Equal(streamed, packed.Bytes()) {
			t.Fatalf("compiled-chunked stream differs from whole-message pack for %v count=%d", ty, count)
		}
		chunkDst := buf.Alloc(bufLen)
		u, err := ty.NewUnpacker(chunkDst, count)
		if err != nil {
			t.Fatalf("unpacker (%v): %v", ty, err)
		}
		off := 0
		for u.Remaining() > 0 {
			n := int(d.byte()) + 1
			if int64(n) > u.Remaining() {
				n = int(u.Remaining())
			}
			if _, err := u.Unpack(buf.FromBytes(streamed[off : off+n])); err != nil {
				t.Fatalf("chunked unpack (%v): %v", ty, err)
			}
			off += n
		}

		// Pipelined differential: drive the chunk-slot pipeline over a
		// fuzz-drawn chunk size and ring depth and require the
		// reassembled stream to match the whole-message pack — the
		// chunk-split shape of the pipelined rendezvous.
		if total := ty.PackSize(count); total > 0 {
			chunk := int64(d.byte()) + 1
			depth := d.intn(4) + 1
			plan, err := ty.CompilePlan(count)
			if err != nil {
				t.Fatalf("plan (%v): %v", ty, err)
			}
			cp, err := NewChunkPipeline(plan, src, 0, total, chunk, depth, 0)
			if err != nil {
				t.Fatalf("pipeline (%v chunk=%d depth=%d): %v", ty, chunk, depth, err)
			}
			piped := make([]byte, 0, total)
			for {
				ch, ok := cp.Next()
				if !ok {
					break
				}
				piped = append(piped, ch.Data.Bytes()...)
				cp.Recycle(ch)
			}
			cp.Close()
			if !bytes.Equal(piped, packed.Bytes()) {
				t.Fatalf("pipelined stream differs from whole-message pack for %v count=%d chunk=%d depth=%d", ty, count, chunk, depth)
			}
		}

		// Fused differential: draw a second (receiver) type from the
		// remaining stream and require the one-pass fused transfer to
		// reproduce the staged pack→unpack pipeline byte for byte —
		// the sender/receiver pair shape of the sendv rendezvous.
		if dstTy := decodeType(d, 1); dstTy != nil {
			dstCount := d.intn(3) + 1
			srcPlan, err := ty.CompilePlan(count)
			if err != nil {
				t.Fatalf("src plan (%v): %v", ty, err)
			}
			dstPlan, err := dstTy.CompilePlan(dstCount)
			if err != nil {
				t.Fatalf("dst plan (%v): %v", dstTy, err)
			}
			if dstPlan.FusedDstSafe() {
				dstLen := userBufLen(dstTy, dstCount)
				fusedDst := buf.Alloc(dstLen)
				if _, err := FusedCopy(srcPlan, dstPlan, src, fusedDst); err != nil {
					t.Fatalf("fused copy (%v -> %v): %v", ty, dstTy, err)
				}
				// Oracle: the staged pipeline over the shared prefix.
				oracleDst := buf.Alloc(dstLen)
				prefix := ty.PackSize(count)
				if need := dstTy.PackSize(dstCount); need < prefix {
					prefix = need
				}
				if prefix > 0 {
					u, err := dstTy.NewUnpacker(oracleDst, dstCount)
					if err != nil {
						t.Fatalf("oracle unpacker (%v): %v", dstTy, err)
					}
					if _, err := u.Unpack(packed.Slice(0, int(prefix))); err != nil {
						t.Fatalf("oracle unpack (%v): %v", dstTy, err)
					}
				}
				if !bytes.Equal(fusedDst.Bytes(), oracleDst.Bytes()) {
					t.Fatalf("fused transfer differs from staged oracle for %v count=%d -> %v count=%d", ty, count, dstTy, dstCount)
				}
			}
		}

		// Roundtrip: unpack into a fresh buffer; layout bytes must
		// match the source and non-layout bytes must stay zero.
		back := buf.Alloc(bufLen)
		if _, err := ty.Unpack(packed, count, back); err != nil {
			t.Fatalf("unpack (%v): %v", ty, err)
		}
		if !bytes.Equal(chunkDst.Bytes(), back.Bytes()) {
			t.Fatalf("compiled-chunked unpack differs from whole-message unpack for %v count=%d", ty, count)
		}
		inLayout := make([]bool, bufLen)
		ext := ty.Extent()
		for i := 0; i < count; i++ {
			ty.r.forEach(int64(i)*ext, func(s layout.Segment) bool {
				for off := s.Off; off < s.End(); off++ {
					inLayout[off] = true
				}
				return true
			})
		}
		for i := 0; i < bufLen; i++ {
			if inLayout[i] {
				if back.Bytes()[i] != src.Bytes()[i] {
					t.Fatalf("roundtrip (%v count=%d): layout byte %d differs", ty, count, i)
				}
			} else if back.Bytes()[i] != 0 {
				t.Fatalf("roundtrip (%v count=%d): wrote outside the layout at %d", ty, count, i)
			}
		}

		// Normalization differential: the cursor walks the raw
		// flattened runs, so the canonical program must match its
		// scatter and fold the same ChecksumRange sums as its packed
		// stream — byte-for-byte indistinguishable from the table walk.
		oracleBack := buf.Alloc(bufLen)
		c = newCursor(ty, oracleBack, count)
		if _, err := c.transfer(packed, unpackDirection); err != nil {
			t.Fatalf("cursor unpack (%v): %v", ty, err)
		}
		if !bytes.Equal(oracleBack.Bytes(), back.Bytes()) {
			t.Fatalf("normalized unpack differs from cursor for %v count=%d (%s)", ty, count, ty.CanonicalString())
		}
		if total := ty.PackSize(count); total > 0 {
			normPlan, err := ty.CompilePlan(count)
			if err != nil {
				t.Fatalf("norm plan (%v): %v", ty, err)
			}
			var sumN, sumR buf.Checksum
			mid := total / 3
			normPlan.ChecksumRange(src, 0, mid, &sumN)
			normPlan.ChecksumRange(src, mid, total, &sumN)
			sumR.Write(oracle.Bytes())
			if sumN.Sum64() != sumR.Sum64() {
				t.Fatalf("normalized checksum differs from cursor for %v count=%d (%s)", ty, count, ty.CanonicalString())
			}
			// Run-kernel differential: a fuzz-drawn [lo, hi) cut entered
			// with a fuzz-drawn carry and lane phase must equal Write
			// over the packed bytes. Drawn last, so the draws above
			// decode as they did before this check existed.
			lo := int64(d.byte()) % total
			hi := lo + 1 + int64(d.byte())%(total-lo)
			carry, phase := d.intn(8), d.intn(4)
			if !checksumRangeMatches(normPlan, src, packed.Bytes(), lo, hi, carry, phase) {
				t.Fatalf("ChecksumRange [%d,%d) carry %d phase %d differs from Write(Pack(src)[lo:hi]) for %v count=%d (%s)",
					lo, hi, carry, phase, ty, count, ty.CanonicalString())
			}
		}
	})
}
