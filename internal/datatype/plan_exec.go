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
	return p.moveChunks(fanTask{user: user, stream: dst}, lo, hi, chunk, span, sums, w, 0)
}

// StageChunks is the staged move of the packed range [lo, hi): each
// chunk packs from user into a chunk-sized staging slot and unpacks at
// once, while it is still in cache, through q into out — a two-stage
// transfer between two layouts that cannot move in one pass. Chunks,
// sums and fan-out are PackChunks'; each chunk is attributed as
// PackRange then UnpackRange of it would be. Every share has its own
// slot, and the slots are one block drawn from the given pool shard
// (the caller's rank) and returned before StageChunks returns. A
// virtual side draws nothing.
func (p *Plan) StageChunks(q *Plan, user, out buf.Block, lo, hi, chunk, span int64, sums []uint64, shard int) error {
	return p.stageChunks(q, user, out, lo, hi, chunk, span, sums, shard, moveWorkers(user, out, hi-lo))
}

// stageChunks is StageChunks with the fan-out given.
func (p *Plan) stageChunks(q *Plan, user, out buf.Block, lo, hi, chunk, span int64, sums []uint64, shard, w int) error {
	if err := p.checkWindow(user, lo, hi); err != nil {
		return err
	}
	if err := q.checkWindow(out, lo, hi); err != nil {
		return err
	}
	return p.moveChunks(fanTask{q: q, user: user, out: out}, lo, hi, chunk, span, sums, w, shard)
}

// moveChunks runs the chunked move t describes — packed into t.stream,
// or staged into t.out through t.q — over [lo, hi) on w workers, where
// the chunks and sums allow a split.
func (p *Plan) moveChunks(t fanTask, lo, hi, chunk, span int64, sums []uint64, w, shard int) error {
	if err := checkSums(hi-lo, chunk, span, sums); err != nil {
		return err
	}
	if hi <= lo {
		return nil
	}
	virtual := t.user.IsVirtual() || t.stream.IsVirtual() || t.out.IsVirtual()
	if virtual && hi-lo > chunk {
		p.RecordChunks(lo, hi, chunk)
		if t.q != nil {
			t.q.RecordChunks(lo, hi, chunk)
		}
		return nil
	}
	if sums == nil || virtual {
		span, sums = 0, nil
	}
	if hi-lo <= chunk || span != 0 && span != chunk {
		w = 1
	}
	w = min(w, int((hi-lo+chunk-1)/chunk))
	if t.q != nil {
		slots := min(chunk, hi-lo) * int64(w)
		if virtual {
			t.stream = buf.Virtual(int(slots))
		} else {
			t.stream = buf.GetPooledFor(shard, int(slots))
			defer buf.PutPooled(t.stream)
		}
	}
	t.run, t.p, t.base, t.size, t.span, t.sums = chunkShare, p, lo, chunk, span, sums
	fanOut(t, lo, hi, chunk, w)
	return nil
}

// chunkShare runs one share of a chunked move chunk by chunk: a chunk
// packs into its place in the stream block, or, staged, into the
// share's slot and out of it through q at once. With sums set a
// running checksum restarts every span bytes from base, and after each
// chunk sums holds its span's sum so far.
func chunkShare(t fanTask) {
	var cs buf.Checksum
	var sum *buf.Checksum
	if t.sums != nil {
		sum = &cs
	}
	for a := t.from; a < t.to; a += t.size {
		b := min(a+t.size, t.to)
		if sum != nil && (a-t.base)%t.span == 0 {
			cs.Reset()
		}
		if t.q == nil {
			t.p.packChunk(t.user, t.stream.Slice(int(a-t.base), int(b-a)), a, b, sum)
		} else {
			slot := t.stream.Slice(t.share*int(t.size), int(b-a))
			t.p.runChunk(t.user, slot, a, b, packDirection, sum)
			t.q.runChunk(t.out, slot, a, b, unpackDirection, nil)
		}
		if sum != nil {
			t.sums[(a-t.base)/t.span] = cs.Sum64()
		}
	}
}

// packChunk packs the chunk [a, b) into blk: one whole execution when
// the chunk is the whole message, a partial-range one otherwise.
func (p *Plan) packChunk(user, blk buf.Block, a, b int64, sum *buf.Checksum) {
	if a == 0 && b == p.total {
		p.execute(user, blk, packDirection, sum)
	} else {
		p.runChunk(user, blk, a, b, packDirection, sum)
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
	if err := p.checkWindow(user, lo, hi); err != nil {
		return err
	}
	if int64(stream.Len()) < hi-lo {
		return fmt.Errorf("%w: range needs %d bytes, stream block has %d", ErrTruncate, hi-lo, stream.Len())
	}
	return nil
}

// checkWindow validates the user buffer bounds and the packed window
// [lo, hi) of a partial-range execution.
func (p *Plan) checkWindow(user buf.Block, lo, hi int64) error {
	if err := p.t.checkUse(int(p.count), user.Len()); err != nil {
		return err
	}
	if lo < 0 || hi < lo || hi > p.total {
		return fmt.Errorf("%w: packed range [%d,%d) of %d-byte stream", ErrArgument, lo, hi, p.total)
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
