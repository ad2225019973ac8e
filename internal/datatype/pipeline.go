package datatype

import (
	"fmt"

	"repro/internal/buf"
)

// This file implements the chunk-slot pipeline: a software-pipelined
// execution of a compiled plan's packed stream through a bounded ring
// of pooled slots. The paper's cost model (§2.3) shows the chunked
// derived-type send serialising pack and inject — the sender packs a
// chunk into an internal buffer, transmits it, packs the next — and
// observes that "with enough support of the NIC and its firmware, it
// would be possible for this scheme to pipeline the reads and sends".
// The NIC support is hardware; the ChunkPipeline is the software
// equivalent: a pack worker runs a configurable depth ahead of the
// consumer, so chunk k+1 packs while chunk k is consumed. Its one
// transfer is the two-stage staged scatter (pack, then unpack into a
// layout); the pipelined rendezvous send only models the overlap and
// packs its bytes in one pass (Plan.PackChunks). The ring is fixed at
// construction — depth pooled slots and nothing else — so the steady
// state allocates nothing.

// PipeChunk is one packed chunk handed from the pipeline's pack worker
// to its consumer: Data holds the packed bytes of stream range
// [Lo, Hi), backed by a ring slot that Recycle returns to the packer.
type PipeChunk struct {
	Data   buf.Block
	Lo, Hi int64
	// Sum, on a NewChunkPipelineSum pipeline, is the checksum of the
	// packed bytes from the last multiple of the sum span up to Hi: the
	// last chunk of a span carries the span's sum.
	Sum uint64

	slot buf.Block // the ring slot backing Data
}

// ChunkPipeline runs the plan's chunk loop over a bounded ring of
// pooled slots with a pack worker running up to depth chunks ahead of
// the consumer. Obtain chunks in stream order with Next, hand each slot
// back with Recycle, and Close when done (early exits included) —
// Close joins the worker and returns the ring storage to the pool.
//
// The ring is the pipeline's entire footprint: depth slots drawn from
// the caller's pool shard at construction, recycled in place, released
// at Close. A consumer that holds every chunk without recycling
// deadlocks against its own worker, exactly like a bounded queue.
type ChunkPipeline struct {
	slots []buf.Block
	ready chan PipeChunk
	free  chan buf.Block
	quit  chan struct{}
	done  bool
}

// NewChunkPipeline validates and starts a pipeline packing the plan's
// packed byte range [lo, hi) out of user in chunk-sized pieces through
// a depth-slot ring drawn from the given pool shard (the caller's
// rank). depth is clamped to [1, chunks]; chunk must be positive.
func NewChunkPipeline(plan *Plan, user buf.Block, lo, hi, chunk int64, depth, shard int) (*ChunkPipeline, error) {
	return NewChunkPipelineSum(plan, user, lo, hi, chunk, depth, shard, 0)
}

// NewChunkPipelineSum is NewChunkPipeline whose pack worker checksums
// what it packs in the same pass (PipeChunk.Sum), starting afresh every
// span packed bytes from lo: span == chunk sums each chunk alone, span
// >= hi-lo the whole range; otherwise a multiple of chunk. 0 sums
// nothing, nor does a virtual user block.
func NewChunkPipelineSum(plan *Plan, user buf.Block, lo, hi, chunk int64, depth, shard int, span int64) (*ChunkPipeline, error) {
	if err := checkSums(hi-lo, chunk, span, nil); err != nil {
		return nil, err
	}
	if lo < 0 || hi < lo || hi > plan.total {
		return nil, fmt.Errorf("%w: pipeline range [%d,%d) of %d-byte stream", ErrArgument, lo, hi, plan.total)
	}
	if err := plan.Validate(user); err != nil {
		return nil, err
	}
	depth = max(1, min(depth, int((hi-lo+chunk-1)/chunk)))
	cp := &ChunkPipeline{
		slots: make([]buf.Block, depth),
		ready: make(chan PipeChunk, depth),
		free:  make(chan buf.Block, depth),
		quit:  make(chan struct{}),
	}
	for i := range cp.slots {
		if user.IsVirtual() {
			cp.slots[i] = buf.Virtual(int(chunk))
		} else {
			cp.slots[i] = buf.GetPooledFor(shard, int(chunk))
		}
		cp.free <- cp.slots[i]
	}
	go cp.worker(plan, user, lo, hi, chunk, span)
	return cp, nil
}

// worker is the pack stage: it runs the plan's chunk loop over free
// slots ahead of the consumer and hands them over in stream order.
func (cp *ChunkPipeline) worker(plan *Plan, user buf.Block, lo, hi, chunk, span int64) {
	defer close(cp.ready)
	plan.chunkLoop(user, lo, hi, chunk, span,
		func(_, _ int64) (buf.Block, bool) {
			select {
			case slot := <-cp.free:
				return slot, true
			case <-cp.quit:
				return buf.Block{}, false
			}
		},
		func(slot buf.Block, lo, hi int64, sum uint64) bool {
			RecordPipelined(1, hi-lo)
			select {
			case cp.ready <- PipeChunk{Data: slot.Slice(0, int(hi-lo)), Lo: lo, Hi: hi, Sum: sum, slot: slot}:
				return true
			case <-cp.quit:
				return false
			}
		})
}

// Next returns the next packed chunk in stream order; ok is false once
// the range is exhausted. The chunk's slot belongs to the consumer
// until Recycle hands it back.
func (cp *ChunkPipeline) Next() (PipeChunk, bool) {
	ch, ok := <-cp.ready
	return ch, ok
}

// Recycle returns a consumed chunk's slot to the pack worker.
func (cp *ChunkPipeline) Recycle(ch PipeChunk) {
	if ch.slot.Len() == 0 && ch.Hi == ch.Lo {
		return
	}
	select {
	case cp.free <- ch.slot:
	case <-cp.quit:
	}
}

// Close stops the worker (if still running), waits for it to exit and
// returns the ring storage to the pool. It is safe after a full drain
// and after an early exit; the pipeline must not be used afterwards.
func (cp *ChunkPipeline) Close() {
	if cp.done {
		return
	}
	cp.done = true
	close(cp.quit)
	// The worker either observed quit or finished and closed ready;
	// draining ready synchronises with its exit either way.
	for range cp.ready {
	}
	for _, s := range cp.slots {
		buf.PutPooled(s)
	}
}
