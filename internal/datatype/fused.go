package datatype

import (
	"fmt"
	"sync"

	"repro/internal/buf"
)

// This file implements the fused scatter/gather transfer engine:
// FusedCopy moves a message from one user layout straight into another
// in a single pass — no packed staging buffer, no second pass over the
// payload. It is the engine behind the mpi layer's fused rendezvous
// (sendv): the paper's central finding is that the software copy — not
// the wire — dominates non-contiguous sends, and the staged
// pack→staging→unpack pipeline reads and writes every payload byte
// twice. The fused pass does it once.
//
// There is one executor, fusedRange, over any packed byte range: the
// whole message on one goroutine, a worker's share of it, or a chunk a
// recovery protocol replays. A contiguous side rides the other side's
// range executor (runRange); any two strided forms run the pair kernel
// (fusedFormRange), which moves whole runs in copyRunGroups batches the
// way pack and unpack do. Only a pairing with a gather table zips two
// segment iterators span by span.
//
// The segment iterator (SegIter) is the per-run view of a plan's packed
// stream. It serves what is not a batch: the partial runs at the edges
// of a ChecksumRange, gather-table walks, the pair iterator above,
// locating one byte for damage injection (mpi), and tests.

// SegIter enumerates the contiguous (userOff, len) runs of a compiled
// plan's packed stream in packed order. It is resumable: SeekTo
// positions it at any packed offset — in closed form on a strided form,
// by division or binary search in a gather table — after which
// Run/Advance walk forward in O(1) per run. The zero value is not
// usable; obtain one from Plan.Segments.
type SegIter struct {
	p   *Plan
	pos int64 // packed position of the iterator head
	h   head  // the head in a strided plan's form

	// A gather plan's head: the instance, the segment index within it,
	// and the bytes of that segment consumed.
	inst, j, off int64
}

// Segments returns a segment iterator positioned at the start of the
// plan's packed stream.
func (p *Plan) Segments() SegIter {
	it := SegIter{p: p}
	it.SeekTo(0)
	return it
}

// SeekTo positions the iterator at packed offset pos (clamped to the
// stream length).
func (it *SegIter) SeekTo(pos int64) {
	p := it.p
	it.pos = min(pos, p.total)
	it.inst, it.j, it.off = 0, 0, 0
	if it.pos >= p.total {
		return
	}
	if p.kernel != KernelGather {
		it.h = p.form.seek(pos)
		return
	}
	pr := p.prog
	it.inst = pos / pr.instSize
	rem := pos - it.inst*pr.instSize
	if pr.uniform > 0 {
		it.j = rem / pr.uniform
		it.off = rem - it.j*pr.uniform
		return
	}
	lo, hi := 0, len(pr.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if pr.segs[mid].pos+pr.segs[mid].length > rem {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	it.j = int64(lo)
	it.off = rem - pr.segs[lo].pos
}

// Run returns the user offset and remaining length of the run the
// iterator head sits in. A zero length means the stream is exhausted.
func (it *SegIter) Run() (off, n int64) {
	p := it.p
	if it.pos >= p.total {
		return 0, 0
	}
	if p.kernel != KernelGather {
		return it.h.o + it.h.off, p.form.runLen - it.h.off
	}
	pr := p.prog
	s := pr.segs[it.j]
	return it.inst*pr.ext + s.off + it.off, s.length - it.off
}

// Advance consumes n bytes of the current run; n must not exceed the
// run remainder Run reported. Runs roll over to the next segment and
// instance automatically.
func (it *SegIter) Advance(n int64) {
	if it.pos += n; it.pos >= it.p.total {
		return
	}
	if it.p.kernel != KernelGather {
		it.h.advance(n)
		return
	}
	segs := it.p.prog.segs
	if it.off += n; it.off < segs[it.j].length {
		return
	}
	it.off = 0
	if it.j++; it.j == int64(len(segs)) {
		it.j = 0
		it.inst++
	}
}

// PairIter zips the packed streams of two plans: each Next yields the
// longest (srcOff, dstOff, len) span over which both layouts are
// contiguous, in packed order. This is the schedule a fused
// scatter/gather transfer executes when either side is a gather table.
type PairIter struct {
	src, dst SegIter
	limit    int64
	pos      int64
}

// NewPairIterRange builds a pair iterator over the packed byte range
// [lo, hi): both sides seek to lo in O(log segments) and Next yields
// spans until hi — the whole pass, one worker's share of it, or one
// replayed chunk.
func NewPairIterRange(src, dst *Plan, lo, hi int64) PairIter {
	it := PairIter{src: src.Segments(), dst: dst.Segments(), limit: hi, pos: lo}
	it.src.SeekTo(lo)
	it.dst.SeekTo(lo)
	return it
}

// Next returns the next fused run: srcOff/dstOff are user-buffer
// offsets, n the span length. ok is false when the schedule is
// exhausted.
func (it *PairIter) Next() (srcOff, dstOff, n int64, ok bool) {
	if it.pos >= it.limit {
		return 0, 0, 0, false
	}
	so, sn := it.src.Run()
	do, dn := it.dst.Run()
	n = sn
	if dn < n {
		n = dn
	}
	if r := it.limit - it.pos; r < n {
		n = r
	}
	it.src.Advance(n)
	it.dst.Advance(n)
	it.pos += n
	return so, do, n, true
}

// Validate checks that a user buffer can carry the plan's message —
// the same bounds rule Pack/Unpack enforce — without executing
// anything. Protocol layers call it before committing to a transfer
// (e.g. before a rendezvous envelope enters the fabric), so argument
// errors surface locally instead of on the peer.
func (p *Plan) Validate(user buf.Block) error {
	return p.t.checkUse(int(p.count), user.Len())
}

// FusedDstSafe reports whether the plan can serve as the destination
// of a fused transfer: repeated instances must not overlap in the user
// buffer, so the packed-order single pass writes every byte exactly
// once. Plans over types whose extent was resized under the instance
// span interleave their instances; those take the staged path, whose
// sequential unpack defines the overlap semantics.
func (p *Plan) FusedDstSafe() bool {
	if p.count <= 1 || p.total == 0 {
		return true
	}
	t := p.t
	return t.Extent() >= t.r.last()-t.r.first()
}

// FusedCopy moves the packed-stream intersection of (srcPlan over src)
// into (dstPlan over dst) in one pass, with no intermediate staging:
// the compiled equivalent of Pack into a scratch buffer followed by
// Unpack, at half the memory traffic. It returns the bytes
// transferred: min(srcPlan.Bytes(), dstPlan.Bytes()).
//
// src and dst must not alias (see buf.Overlaps) and dstPlan must be
// FusedDstSafe; callers fall back to the staged path otherwise.
// Virtual participants record the transfer without moving bytes.
func FusedCopy(srcPlan, dstPlan *Plan, src, dst buf.Block) (int64, error) {
	return FusedCopySum(srcPlan, dstPlan, src, dst, 0, nil)
}

// FusedCopySum is FusedCopy that checksums the packed stream it moves
// in the same pass: the stream is cut every span bytes and sums[i]
// receives the checksum of piece i alone, what srcPlan.ChecksumRange
// over the piece would give. Nil sums make it FusedCopy, and virtual
// participants record no sum.
func FusedCopySum(srcPlan, dstPlan *Plan, src, dst buf.Block, span int64, sums []uint64) (int64, error) {
	if err := srcPlan.t.checkUse(int(srcPlan.count), src.Len()); err != nil {
		return 0, fmt.Errorf("fused source: %w", err)
	}
	if err := dstPlan.t.checkUse(int(dstPlan.count), dst.Len()); err != nil {
		return 0, fmt.Errorf("fused destination: %w", err)
	}
	total := srcPlan.total
	if dstPlan.total < total {
		total = dstPlan.total
	}
	if total == 0 {
		return 0, nil
	}
	// The parallel decision depends only on the size, so virtual
	// transfers are attributed exactly as their real counterparts
	// (and as the parallel pricers model them).
	w := ParallelWorkersFor(total)
	if !src.IsVirtual() && !dst.IsVirtual() {
		fusedExec(srcPlan, dstPlan, src, dst, total, w, span, sums)
	}
	recordFused(total, w > 1)
	return total, nil
}

// fusedExec runs the one-pass transfer over the packed range
// [0, total): on the calling goroutine, or cut across w > 1 workers
// (every kernel can start mid-stream, so the cut needs no segment
// alignment). Either way each range goes through fusedRange — one
// dispatcher, one kernel per pairing. With sums non-nil the pass is
// summed piece by piece (FusedCopySum); a checksum's chain is
// sequential, so the cut then falls on piece boundaries.
func fusedExec(srcPlan, dstPlan *Plan, src, dst buf.Block, total int64, w int, span int64, sums []uint64) {
	if w <= 1 {
		fusedPieces(srcPlan, dstPlan, src, dst, 0, total, total, span, sums)
		return
	}
	align := int64(64)
	if sums != nil {
		align = span
	}
	// The destination plan is FusedDstSafe (callers fall back to the
	// staged path otherwise), so distinct packed ranges write distinct
	// user bytes and the workers need no synchronisation beyond the
	// final join — the same disjointness argument as runParallelRange.
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := splitPoint(0, total, i, w, align), splitPoint(0, total, i+1, w, align)
		if i == w-1 {
			// The caller, who would only wait, takes the last share.
			fusedPieces(srcPlan, dstPlan, src, dst, lo, hi, total, span, sums)
			break
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			fusedPieces(srcPlan, dstPlan, src, dst, lo, hi, total, span, sums)
		}(lo, hi)
	}
	wg.Wait()
}

// fusedPieces runs one share of fusedExec: the range as it is, or,
// summed, piece by piece (lo is a multiple of span).
func fusedPieces(srcPlan, dstPlan *Plan, src, dst buf.Block, lo, hi, total, span int64, sums []uint64) {
	if sums == nil {
		fusedRange(srcPlan, dstPlan, src, dst, lo, hi, total, nil)
		return
	}
	for ; lo < hi; lo += span {
		var cs buf.Checksum
		fusedRange(srcPlan, dstPlan, src, dst, lo, min(lo+span, hi), total, &cs)
		sums[lo/span] = cs.Sum64()
	}
}

// fusedRange executes the packed byte range [lo, hi) of the fused
// schedule. A contiguous side turns the transfer into a plain pack or
// unpack running the other plan's range executor against the peer's
// buffer window; two strided forms run the pair kernel; a pairing with
// a gather table walks seeked pair iterators (table segments are
// typically longer than stride runs, so the per-span bookkeeping
// amortises). A non-nil sum is folded over the range's packed bytes by
// the moves, as in runRange.
func fusedRange(srcPlan, dstPlan *Plan, src, dst buf.Block, lo, hi, total int64, sum *buf.Checksum) {
	switch {
	case dstPlan.kernel == KernelContig:
		// Gather straight into the destination window: the source
		// plan's own executor, no staging in between.
		stream := dst.Slice(int(dstPlan.form.start), int(total))
		srcPlan.runRange(src, stream, lo, hi, 0, packDirection, sum)
	case srcPlan.kernel == KernelContig:
		// Scatter straight out of the source window.
		stream := src.Slice(int(srcPlan.form.start), int(total))
		dstPlan.runRange(dst, stream, lo, hi, 0, unpackDirection, sum)
	case srcPlan.kernel != KernelGather && dstPlan.kernel != KernelGather:
		fusedFormRange(dst.Bytes(), src.Bytes(), &srcPlan.form, &dstPlan.form, lo, hi, sum)
	default:
		db, sb := dst.Bytes(), src.Bytes()
		it := NewPairIterRange(srcPlan, dstPlan, lo, hi)
		for {
			so, do, n, ok := it.Next()
			if !ok {
				return
			}
			copyRunSum(db[do:], sb[so:], n, sum)
		}
	}
}

// fusedFormRange is the fused kernel for a pair of strided forms over
// the packed range [lo, hi). Both sides seek in closed form, so any
// worker's share or retransmitted chunk starts in O(1) with no segment
// tables. When one side's run length divides the other's — 1:1 is the
// paper's every-other-double exchanged between two strided layouts,
// 8 B into 32 B a typed receive into blocks of four — and both heads
// stand at run starts, whole long runs move in one copyRunGroups batch
// up to the nearer row edge (the end of either side's level 0);
// everything else (range edges cutting a run, a row edge inside a long
// run, run lengths that do not divide) moves as the longest span
// contiguous on both sides.
func fusedFormRange(db, sb []byte, sf, df *form, lo, hi int64, sum *buf.Checksum) {
	s, d := sf.seek(lo), df.seek(lo)
	a, b := sf.runLen, df.runLen
	// A long run holds sq source runs and dq destination runs (one of
	// the two is 1). Within it the long side walks on densely, short
	// bytes at a time, while the short side steps run to run.
	short, long, sq, dq := a, b, b/a, int64(1)
	if a > b {
		short, long, sq, dq = b, a, 1, a/b
	}
	divides := long == a*sq && long == b*dq
	sStep, sGroup := short, sf.str[0]
	if sq > 1 {
		sStep, sGroup = sf.str[0], sq*sf.str[0]
	}
	dStep, dGroup := short, df.str[0]
	if dq > 1 {
		dStep, dGroup = df.str[0], dq*df.str[0]
	}
	for pos := lo; pos < hi; {
		if divides && s.off == 0 && d.off == 0 {
			k := min((sf.cnt[0]-s.c[0])/sq, (df.cnt[0]-d.c[0])/dq, (hi-pos)/long)
			if k > 0 {
				copyRunGroups(db, sb, d.o, s.o, dStep, sStep, dGroup, sGroup, short, sq*dq, k, sum)
				s.step(0, k*sq)
				d.step(0, k*dq)
				pos += k * long
				continue
			}
		}
		n := min(a-s.off, b-d.off, hi-pos)
		copyRunSum(db[d.o+d.off:], sb[s.o+s.off:], n, sum)
		s.advance(n)
		d.advance(n)
		pos += n
	}
}
