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
// summing per internal chunk or pipeline slot and a receiver summing
// the whole stream agree. It is the receiver's tool: a sender's sums
// are folded by the move that packs or fuses the bytes (PackRangeSum,
// PackChunks, FusedCopySum, NewChunkPipelineSum), and
// PlanStats.ChecksumBytes counts the passes made here so that a sender
// making one shows.
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
