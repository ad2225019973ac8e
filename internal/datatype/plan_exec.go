package datatype

import (
	"fmt"
	"sort"

	"repro/internal/buf"
)

// This file executes compiled plans: the exported whole-message and
// packed-range entry points, the shares of a range split across workers
// (fanOut, fanout.go), and the two range executors a range can run on —
// runForm (block.go) over the plan's strided form, which every plan but
// a gather table has, and runGather over the table. An executor does
// addressing only — one seek to the range's first byte, then the range
// cut into the largest batches the program has a fixed stride for —
// and hands every batch to copyRunGroups and every leftover piece to
// copyRun (copykernel.go); pack and unpack differ in which argument is
// the dense one (moveRuns, moveRun); a checksum handed to an executor
// is folded by the moves, in packed order.

// Pack gathers the plan's full message from src into dst, returning
// the bytes produced. It is the compiled equivalent of Type.Pack.
func (p *Plan) Pack(src, dst buf.Block) (int64, error) {
	if err := p.t.checkUse(int(p.count), src.Len()); err != nil {
		return 0, err
	}
	if int64(dst.Len()) < p.total {
		return 0, fmt.Errorf("%w: need %d bytes, destination has %d", ErrTruncate, p.total, dst.Len())
	}
	return p.execute(src, dst, packDirection, nil), nil
}

// Unpack scatters the packed bytes of src into the plan's layout in
// dst, the compiled equivalent of Type.Unpack.
func (p *Plan) Unpack(src, dst buf.Block) (int64, error) {
	if err := p.t.checkUse(int(p.count), dst.Len()); err != nil {
		return 0, err
	}
	if int64(src.Len()) < p.total {
		return 0, fmt.Errorf("%w: need %d packed bytes, source has %d", ErrTruncate, p.total, src.Len())
	}
	return p.execute(dst, src, unpackDirection, nil), nil
}

// PackRange gathers the packed byte range [lo, hi) of the plan's
// message from src into stream, whose byte 0 is packed position lo —
// the compiled-chunked entry a selective replay re-packs a damaged
// range through. Buffers are validated; the execution is attributed to
// the chunk counters.
func (p *Plan) PackRange(src, stream buf.Block, lo, hi int64) error {
	return p.PackRangeSum(src, stream, lo, hi, 0, nil)
}

// PackRangeSum is PackRange that checksums the bytes it packs in the
// same pass: the range is cut every span bytes from lo and sums[i]
// receives the checksum of piece i alone, what ChecksumRange over the
// piece would give. From ParallelPackThreshold bytes the pieces split
// across workers (fanOut), whole pieces to a share, so every sum is
// still one chain and a range that is one piece runs on the calling
// goroutine. Nil sums make it PackRange, and virtual participants
// record no sum.
func (p *Plan) PackRangeSum(src, stream buf.Block, lo, hi, span int64, sums []uint64) error {
	return p.packRangeSum(src, stream, lo, hi, span, sums, moveWorkers(src, stream, hi-lo))
}

// packRangeSum is PackRangeSum with the fan-out of a summed range
// given.
func (p *Plan) packRangeSum(src, stream buf.Block, lo, hi, span int64, sums []uint64, w int) error {
	if err := p.checkRange(src, stream, lo, hi); err != nil {
		return err
	}
	if err := checkSums(hi-lo, 1, span, sums); err != nil {
		return err
	}
	if sums == nil || hi <= lo || src.IsVirtual() || stream.IsVirtual() {
		p.runChunk(src, stream, lo, hi, packDirection, nil)
		return nil
	}
	fanOut(fanTask{run: packPieces, p: p, user: src, stream: stream, base: lo, size: span, sums: sums}, lo, hi, span, w)
	recordPlanChunk(p.kernel, 1, hi-lo, false)
	return nil
}

// packPieces packs and sums the pieces of one PackRangeSum share.
func packPieces(t fanTask) {
	for a := t.from; a < t.to; a += t.size {
		var cs buf.Checksum
		t.p.runRange(t.user, t.stream, a, min(a+t.size, t.to), t.base, packDirection, &cs)
		t.sums[(a-t.base)/t.size] = cs.Sum64()
	}
}

// PackChunks packs the range [lo, hi) from user into dst, whose byte
// 0 is packed position lo, one chunk at a time: the serial chunk loop
// of the derived-type send (§2.3). With sums set, sums[i] gets the
// checksum of span i, every span bytes from lo, span a multiple of
// chunk or the whole range. Several chunks that carry no running sum
// across them (span 0 or span == chunk) run through the fan-out, whole
// chunks to a share, split across workers from ParallelPackThreshold
// bytes; each chunk executes and is attributed exactly as in the serial
// loop, which runs a single chunk and a sum across chunks. A virtual
// side moves and sums nothing, and several chunks of it are attributed
// in closed form (RecordChunks).
func (p *Plan) PackChunks(user, dst buf.Block, lo, hi, chunk, span int64, sums []uint64) error {
	return p.packChunks(user, dst, lo, hi, chunk, span, sums, moveWorkers(user, dst, hi-lo))
}

// packChunks is PackChunks with the fan-out given.
func (p *Plan) packChunks(user, dst buf.Block, lo, hi, chunk, span int64, sums []uint64, w int) error {
	if err := p.checkRange(user, dst, lo, hi); err != nil {
		return err
	}
	if err := checkSums(hi-lo, chunk, span, sums); err != nil {
		return err
	}
	virtual := user.IsVirtual() || dst.IsVirtual()
	if virtual && hi-lo > chunk {
		p.RecordChunks(lo, hi, chunk, false)
		return nil
	}
	if sums == nil || virtual {
		span, sums = 0, nil
	}
	if hi-lo > chunk && (span == 0 || span == chunk) {
		fanOut(fanTask{run: packChunkShare, p: p, user: user, stream: dst, base: lo, size: chunk, sums: sums}, lo, hi, chunk, w)
		return nil
	}
	p.chunkLoop(user, lo, hi, chunk, span,
		func(a, b int64) (buf.Block, bool) { return dst.Slice(int(a-lo), int(b-a)), true },
		func(_ buf.Block, a, _ int64, sum uint64) bool {
			if span > 0 {
				sums[(a-lo)/span] = sum
			}
			return true
		})
	return nil
}

// packChunkShare runs one PackChunks share chunk by chunk, each chunk
// summed alone when sums is set.
func packChunkShare(t fanTask) {
	for a := t.from; a < t.to; a += t.size {
		b := min(a+t.size, t.to)
		blk := t.stream.Slice(int(a-t.base), int(b-a))
		if t.sums == nil {
			t.p.runChunk(t.user, blk, a, b, packDirection, nil)
			continue
		}
		var cs buf.Checksum
		t.p.runChunk(t.user, blk, a, b, packDirection, &cs)
		t.sums[(a-t.base)/t.size] = cs.Sum64()
	}
}

// chunkLoop is the one serial chunk loop, behind PackChunks' single
// chunk and sums across chunks, and the pipeline worker: each chunk of [lo, hi) packs into the block slot names, and
// done gets it with the running sum of its span so far (restarted every
// span bytes from lo; span 0 sums nothing). A chunk that is the whole
// message runs as one execution. slot or done returning false stops it.
func (p *Plan) chunkLoop(user buf.Block, lo, hi, chunk, span int64, slot func(a, b int64) (buf.Block, bool), done func(blk buf.Block, a, b int64, sum uint64) bool) {
	var cs buf.Checksum
	var sum *buf.Checksum
	if span > 0 {
		sum = &cs
	}
	for a := lo; a < hi; {
		b := min(a+chunk, hi)
		blk, ok := slot(a, b)
		if !ok {
			return
		}
		if sum != nil && (a-lo)%span == 0 {
			cs.Reset()
		}
		if a == 0 && b == p.total {
			p.execute(user, blk, packDirection, sum)
		} else {
			p.runChunk(user, blk, a, b, packDirection, sum)
		}
		if !done(blk, a, b, cs.Sum64()) {
			return
		}
		a = b
	}
}

// checkSums validates a chunked move over n packed bytes: chunk > 0 (1
// for a move that is not chunked), and a running sum that restarts
// every span bytes on a chunk boundary, with a slot in sums, when set,
// for every span. Span 0 with nil sums sums nothing.
func checkSums(n, chunk, span int64, sums []uint64) error {
	if chunk > 0 && span == 0 && sums == nil {
		return nil
	}
	if chunk <= 0 || span <= 0 || span%chunk != 0 && span < n || sums != nil && int64(len(sums)) < (n+span-1)/span {
		return fmt.Errorf("%w: %d sums of %d-byte spans over %d bytes in %d-byte chunks", ErrArgument, len(sums), span, n, chunk)
	}
	return nil
}

// UnpackRange scatters the packed byte range [lo, hi) from stream
// (whose byte 0 is packed position lo) into the plan's layout in dst,
// the inverse of PackRange.
func (p *Plan) UnpackRange(stream, dst buf.Block, lo, hi int64) error {
	if err := p.checkRange(dst, stream, lo, hi); err != nil {
		return err
	}
	p.runChunk(dst, stream, lo, hi, unpackDirection, nil)
	return nil
}

// checkRange validates a partial-range execution: user buffer bounds
// and the packed window against the stream block.
func (p *Plan) checkRange(user, stream buf.Block, lo, hi int64) error {
	if err := p.t.checkUse(int(p.count), user.Len()); err != nil {
		return err
	}
	if lo < 0 || hi < lo || hi > p.total {
		return fmt.Errorf("%w: packed range [%d,%d) of %d-byte stream", ErrArgument, lo, hi, p.total)
	}
	if int64(stream.Len()) < hi-lo {
		return fmt.Errorf("%w: range needs %d bytes, stream block has %d", ErrTruncate, hi-lo, stream.Len())
	}
	return nil
}

// execute runs the full message through the selected kernel, splitting
// across goroutines above the parallel threshold, and records the
// execution in the plan counters. Buffers must already be validated.
// Virtual participants record the execution without moving bytes. A
// non-nil sum is one chain over the whole message, so a summed message
// runs unsplit on the calling goroutine; summed work that is cut into
// pieces splits at piece boundaries instead (PackRangeSum, PackChunks,
// FusedCopySum, ChecksumChunks).
func (p *Plan) execute(user, stream buf.Block, dir direction, sum *buf.Checksum) int64 {
	if p.total == 0 {
		return 0
	}
	parallel := false
	if !user.IsVirtual() && !stream.IsVirtual() {
		if w := parallelWorkersFor(p.total); sum == nil && w > 1 {
			parallel = true
			p.runParallelN(user, stream, dir, w)
		} else {
			p.runRange(user, stream, 0, p.total, 0, dir, sum)
		}
	}
	recordPlanExec(p.kernel, 1, p.total, parallel)
	return p.total
}

// runChunk executes the packed byte range [lo, hi) of the message
// against a stream block whose byte 0 is packed position lo — the
// compiled-chunked tier behind the range entries and the chunk loops.
// Large chunks split across goroutines like whole messages, unless a
// checksum is folded along: sum non-nil is one chain over the chunk,
// which then runs unsplit on the calling goroutine (a chunk loop may
// still run several such chunks at once, one per worker). Virtual
// participants record the execution without moving bytes.
func (p *Plan) runChunk(user, stream buf.Block, lo, hi int64, dir direction, sum *buf.Checksum) {
	if hi <= lo {
		return
	}
	parallel := false
	if !user.IsVirtual() && !stream.IsVirtual() {
		if w := parallelWorkersFor(hi - lo); sum == nil && w > 1 {
			parallel = true
			p.runParallelRange(user, stream, lo, hi, lo, dir, w)
		} else {
			p.runRange(user, stream, lo, hi, lo, dir, sum)
		}
	}
	recordPlanChunk(p.kernel, 1, hi-lo, parallel)
}

// runParallelN splits the packed byte range [0, total) across w
// workers. Every kernel can start mid-stream in O(log segments), so the
// split points need no alignment; each worker touches disjoint packed
// and user ranges (runs never overlap), so no synchronisation beyond
// the final join is needed.
func (p *Plan) runParallelN(user, stream buf.Block, dir direction, w int) {
	p.runParallelRange(user, stream, 0, p.total, 0, dir, w)
}

// runParallelRange splits the packed range [lo, hi) across w workers
// at cache-line cuts; soff is the packed position of the stream block's
// byte 0.
func (p *Plan) runParallelRange(user, stream buf.Block, lo, hi, soff int64, dir direction, w int) {
	fanOut(fanTask{run: runShare, p: p, user: user, stream: stream, base: soff, dir: dir}, lo, hi, 64, w)
}

// runShare moves one share of an unsummed range.
func runShare(t fanTask) {
	t.p.runRange(t.user, t.stream, t.from, t.to, t.base, t.dir, nil)
}

// runRange executes the packed byte range [lo, hi); soff is the packed
// position the stream block starts at (0 for whole-message streams,
// lo for standalone chunk blocks). A non-nil sum is folded over the
// range's bytes, in packed order, by the moves themselves.
func (p *Plan) runRange(user, stream buf.Block, lo, hi, soff int64, dir direction, sum *buf.Checksum) {
	switch {
	case hi <= lo:
	case p.kernel == KernelGather:
		p.runGather(user, stream, lo, hi, soff, dir, sum)
	default:
		p.runForm(user, stream, lo, hi, soff, dir, sum)
	}
}

// runGather is the irregular kernel: find the entry point in the
// flattened segment table — a division when the normalizer hoisted a
// uniform segment length, a binary search otherwise — then walk it
// linearly. soff is the packed position of sb's byte 0.
func (p *Plan) runGather(user, stream buf.Block, lo, hi, soff int64, dir direction, sum *buf.Checksum) {
	ub, sb := user.Bytes(), stream.Bytes()
	pr := p.prog
	segs := pr.segs
	inst := lo / pr.instSize
	rem := lo - inst*pr.instSize
	var idx int
	if pr.uniform > 0 {
		idx = int(rem / pr.uniform)
	} else {
		idx = sort.Search(len(segs), func(i int) bool { return segs[i].pos+segs[i].length > rem })
	}
	pos := lo
	for pos < hi {
		userBase := inst * pr.ext
		packBase := inst * pr.instSize
		for idx < len(segs) && pos < hi {
			s := segs[idx]
			segOff := pos - (packBase + s.pos)
			n := s.length - segOff
			if n > hi-pos {
				n = hi - pos
			}
			moveRun(sb, ub, pos-soff, userBase+s.off+segOff, n, dir, sum)
			pos += n
			idx++
		}
		if idx >= len(segs) {
			idx = 0
			inst++
		}
	}
}

// moveRuns moves k rows of q whole runs of runLen bytes between the
// packed stream, dense from sb[sp:], and the user buffer, run j of row
// i at ub[o+i*rowStride+j*step:]. Direction only decides which side of
// copyRunGroups is the dense one.
func moveRuns(sb, ub []byte, sp, o, step, rowStride, runLen, q, k int64, dir direction, sum *buf.Checksum) {
	if dir == packDirection {
		copyRunGroups(sb, ub, sp, o, runLen, step, q*runLen, rowStride, runLen, q, k, sum)
	} else {
		copyRunGroups(ub, sb, o, sp, step, runLen, rowStride, q*runLen, runLen, q, k, sum)
	}
}

// moveRun moves the n bytes of one run, or of the part of a run a
// range edge leaves, between sb[sp:] and ub[o:].
func moveRun(sb, ub []byte, sp, o, n int64, dir direction, sum *buf.Checksum) {
	if dir == packDirection {
		copyRunSum(sb[sp:], ub[o:], n, sum)
	} else {
		copyRunSum(ub[o:], sb[sp:], n, sum)
	}
}
