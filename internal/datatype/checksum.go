package datatype

import "repro/internal/buf"

// ChecksumRange folds the packed-stream bytes [lo, hi) of the plan
// over user into sum — no staging, no allocation, exactly the
// zero-staging discipline of the fused paths. It executes the plan's
// program the way pack and unpack do: one seek to lo, then on a strided
// form the whole runs left of each row handed to the checksum's run
// kernel (buf.Checksum.FoldRuns) in one call each. The segment
// iterator's per-run Run/Advance serves only what has no fixed stride
// to batch over: the partial runs a range edge cuts and gather-table
// segments. The fold is chunk-invariant (see buf.Checksum): a sender
// summing per internal chunk and a receiver summing the whole stream
// agree. It is the receiver's tool (LandedSum and ChecksumChunks run it
// over what landed): a sender's sums are folded by the move that packs,
// stages or fuses the bytes (PackRangeSum, PackChunks, StageChunks,
// FusedCopySum), and PlanStats.ChecksumBytes
// counts the passes made here so that a sender making one shows.
//
// Virtual user blocks are skipped length-only, so both ends of a
// virtual transfer still produce matching sums.
func (p *Plan) ChecksumRange(user buf.Block, lo, hi int64, sum *buf.Checksum) {
	if hi > p.total {
		hi = p.total
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	if user.IsVirtual() {
		sum.SkipVirtual(hi - lo)
		return
	}
	planCounters.checksumBytes.Add(hi - lo)
	data := user.Bytes()
	it := p.Segments()
	it.SeekTo(lo)
	for it.pos < hi {
		if base, step, runLen, k := it.wholeRuns(hi - it.pos); k > 0 {
			sum.FoldRuns(data, base, step, runLen, k)
			it.pos += k * runLen
			it.h.step(0, k)
			continue
		}
		off, n := it.Run()
		if it.pos+n > hi {
			n = hi - it.pos
		}
		sum.Write(data[off : off+n])
		it.Advance(n)
	}
}

// wholeRuns reports the batch of whole runs at the iterator head: k
// runs of runLen bytes, run i at user offset base+i*step, within limit
// packed bytes and up to the end of the form's row. k is 0 when the
// head is inside a run, fewer than runLen bytes remain, or the plan is
// a gather table.
func (it *SegIter) wholeRuns(limit int64) (base, step, runLen, k int64) {
	f := &it.p.form
	if it.h.off != 0 || it.pos >= it.p.total || it.p.kernel == KernelGather {
		return 0, 0, 0, 0
	}
	return it.h.o, f.str[0], f.runLen, min(f.cnt[0]-it.h.c[0], limit/f.runLen)
}

// ChecksumChunks is a receiver's verify of a chunked transfer: for
// every chunk i that set names (bit i%64 of set[i/64]) it sets sums[i]
// to the checksum of packed-stream chunk i, [i*size, min((i+1)*size,
// n)), as it landed in user — read through p's layout (ChecksumRange),
// or, with p nil, as the packed stream itself. The named chunks split
// across the workers parallelWorkersFor gives their bytes, whole chunks
// to a share, so each sum is one chain and equals a serial verify's.
// Chunks at or past n, and every chunk of a virtual user, are skipped.
func ChecksumChunks(p *Plan, user buf.Block, n, size int64, set, sums []uint64) {
	checksumChunks(p, user, n, size, set, sums, parallelWorkersFor)
}

// checksumChunks is ChecksumChunks with the fan-out for the named
// bytes given by workers.
func checksumChunks(p *Plan, user buf.Block, n, size int64, set, sums []uint64, workers func(bytes int64) int) {
	if user.IsVirtual() {
		return
	}
	m, bytes := namedChunks(n, size, set)
	if m == 0 {
		return
	}
	// The fan-out's range is the named chunks' ranks, so a share sums
	// whole chunks.
	fanOut(fanTask{run: sumChunks, p: p, user: user, end: n, size: size, set: set, sums: sums}, 0, m, 1, workers(bytes))
}

// namedChunks counts the chunks below n that set names, and their
// bytes.
func namedChunks(n, size int64, set []uint64) (m, bytes int64) {
	for lo, i := int64(0), int64(0); lo < n && size > 0; lo, i = lo+size, i+1 {
		if chunkNamed(set, i) {
			m++
			bytes += min(lo+size, n) - lo
		}
	}
	return m, bytes
}

// chunkNamed reports whether set names chunk i.
func chunkNamed(set []uint64, i int64) bool {
	return i/64 < int64(len(set)) && set[i/64]&(1<<uint(i%64)) != 0
}

// sumChunks sums one ChecksumChunks share: the named chunks whose rank
// among the named chunks lies in [from, to).
func sumChunks(t fanTask) {
	var rank int64
	for lo, i := int64(0), int64(0); lo < t.end && rank < t.to; lo, i = lo+t.size, i+1 {
		if !chunkNamed(t.set, i) {
			continue
		}
		if rank++; rank <= t.from {
			continue
		}
		t.sums[i] = LandedSum(t.p, t.user, lo, min(lo+t.size, t.end))
	}
}

// LandedSum is the checksum of packed-stream range [lo, hi) as it
// landed in user: read through p's layout (ChecksumRange), or, with p
// nil, as the packed stream itself. It is one chain on the calling
// goroutine — a whole-transfer verify; ChecksumChunks runs it per chunk.
func LandedSum(p *Plan, user buf.Block, lo, hi int64) uint64 {
	var cs buf.Checksum
	if p != nil {
		p.ChecksumRange(user, lo, hi, &cs)
	} else {
		cs.Write(user.Bytes()[lo:hi])
	}
	return cs.Sum64()
}
