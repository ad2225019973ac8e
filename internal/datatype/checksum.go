package datatype

import "repro/internal/buf"

// ChecksumRange folds the packed-stream bytes [lo, hi) of the plan
// over user into sum — no staging, no allocation, exactly the
// zero-staging discipline of the fused paths. It executes the plan's
// program the way pack and unpack do: one closed-form seek to lo, then
// whole-run batches — a stride instance's runs, a block form's rows —
// handed to the checksum's run kernel (buf.Checksum.FoldRuns) in one
// call each. The segment iterator's per-run Run/Advance serves only
// what has no fixed stride to batch over: the partial runs a range
// edge cuts, gather-table segments and the single run of a contiguous
// plan. The fold is chunk-invariant (see buf.Checksum): a sender
// summing per internal chunk or pipeline slot and a receiver summing
// the whole stream agree. It is the receiver's tool: a sender's sums
// are folded by the move that packs or fuses the bytes (PackRangeSum,
// FusedCopySum, NewChunkPipelineSum), and PlanStats.ChecksumBytes
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
			it.stepRuns(k)
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
// packed bytes and up to the end of the stride instance or block row.
// k is 0 when the head is inside a run, fewer than runLen bytes remain,
// or the kernel has no fixed stride (contig, gather).
func (it *SegIter) wholeRuns(limit int64) (base, step, runLen, k int64) {
	p := it.p
	if it.off != 0 || it.pos >= p.total {
		return 0, 0, 0, 0
	}
	pr := p.prog
	switch p.kernel {
	case KernelStride:
		runLen, step, k = pr.runLen, pr.step, pr.runs-it.j
		base = it.inst*pr.ext + pr.start + it.j*step
	case KernelBlock:
		cf := &pr.canon
		runLen, step, k = cf.runLen, cf.str[0], cf.cnt[0]-it.j%cf.cnt[0]
		base = it.inst*pr.ext + cf.offsetOf(it.j)
	default:
		return 0, 0, 0, 0
	}
	if m := limit / runLen; m < k {
		k = m
	}
	return base, step, runLen, k
}
