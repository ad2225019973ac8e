package datatype

import "repro/internal/buf"

// This file implements the chunk iterator: a plan's packed stream
// handed out chunk by chunk through one pooled slot, each chunk packed
// by Next on the calling goroutine. The overlap of pack and inject
// (§2.3) is priced on the virtual clock (memsim.PipelinedChunkCost),
// and every chunked transfer moves its bytes on the pack workers
// (PackChunks, StageChunks); the iterator runs no stage of its own.

// PipeChunk is one packed chunk of a ChunkPipeline: Data holds the
// packed bytes of stream range [Lo, Hi), backed by the pipeline's slot.
type PipeChunk struct {
	Data   buf.Block
	Lo, Hi int64
}

// ChunkPipeline packs the plan's chunk loop through one pooled slot:
// obtain chunks in stream order with Next and Close when done (early
// exits included), which returns the slot to the pool. A chunk's Data
// is valid until the next call of Next or Close; Recycle does nothing.
type ChunkPipeline struct {
	plan          *Plan
	user, slot    buf.Block
	at, hi, chunk int64
}

// NewChunkPipeline validates the packed byte range [lo, hi) of user and
// draws the chunk-sized slot its chunks pack into from the given pool
// shard (the caller's rank); a virtual user draws nothing. chunk must be
// positive. depth is accepted and unused: pipeline depth is a modelled
// quantity of the virtual clock (perfmodel.Profile.PipelineDepth).
func NewChunkPipeline(plan *Plan, user buf.Block, lo, hi, chunk int64, depth, shard int) (*ChunkPipeline, error) {
	if err := checkSums(hi-lo, chunk, 0, nil); err != nil {
		return nil, err
	}
	if err := plan.checkWindow(user, lo, hi); err != nil {
		return nil, err
	}
	cp := &ChunkPipeline{plan: plan, user: user, at: lo, hi: hi, chunk: chunk}
	if user.IsVirtual() {
		cp.slot = buf.Virtual(int(chunk))
	} else {
		cp.slot = buf.GetPooledFor(shard, int(chunk))
	}
	return cp, nil
}

// Next packs the next chunk in stream order into the slot and returns
// it; ok is false once the range is exhausted or the pipeline closed.
func (cp *ChunkPipeline) Next() (PipeChunk, bool) {
	if cp.at >= cp.hi {
		return PipeChunk{}, false
	}
	a, b := cp.at, min(cp.at+cp.chunk, cp.hi)
	blk := cp.slot.Slice(0, int(b-a))
	cp.plan.packChunk(cp.user, blk, a, b, nil)
	RecordPipelined(1, b-a)
	cp.at = b
	return PipeChunk{Data: blk, Lo: a, Hi: b}, true
}

// Recycle does nothing: the next Next reuses the one slot.
func (cp *ChunkPipeline) Recycle(PipeChunk) {}

// Close returns the slot to the pool. It is safe after a full drain,
// after an early exit and twice; the pipeline yields nothing afterwards.
func (cp *ChunkPipeline) Close() {
	buf.PutPooled(cp.slot)
	cp.slot, cp.at = buf.Block{}, cp.hi
}
