package mpi

import (
	"math/bits"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/vclock"
)

// This file implements the pipelined large-message collective
// schedules: BcastType as scatter+allgather of packed segments (the
// Van de Geijn algorithm) and the packed-segment ring behind
// AllgatherType's large non-fusable legs. Both move packed blocks
// between ranks through the chunk-streamed ring hop (ringHop), so each
// piece's unpack overlaps the next piece's flight — the chunk pipeline
// stretched across the communicator — and both forward each rank's
// original packed stream verbatim, which keeps overlapping-instance
// destination layouts on the sequential-unpack semantics the staged
// paths define (re-packing a lossy layout at a relay would not).
//
// Scratch discipline: every rank holds at most its subtree block (the
// bcast scatter) plus two segment-sized pooled blocks that the ring
// rotates through — O(n/p) per rank instead of the tree relay's whole
// message, which is the memory argument for scatter+allgather at large
// sizes on top of the bandwidth one.

// packedRing runs the p-1 ring steps that circulate every rank's
// packed segment to every rank. seg(r) returns the packed range of
// relative rank r's segment in [0, n); own is the caller's already
// packed segment (a view of a block the ring must NOT recycle);
// unpack scatters an absolute packed range from a stream block whose
// byte 0 is the range start. rel is the caller's relative rank and abs
// maps relative ranks back to communicator ranks.
func (c *Comm) packedRing(rel int, abs func(int) int, seg func(int) (int64, int64), own buf.Block, unpack func(stream buf.Block, lo, hi int64) error) error {
	p := c.size
	maxSeg := int64(0)
	for r := 0; r < p; r++ {
		if lo, hi := seg(r); hi-lo > maxSeg {
			maxSeg = hi - lo
		}
	}
	right, left := abs((rel+1)%p), abs((rel-1+p)%p)
	spares := []buf.Block{c.transitAlloc(own, maxSeg), c.transitAlloc(own, maxSeg)}
	defer func() {
		for _, s := range spares {
			buf.PutPooled(s)
		}
	}()
	free := spares
	out, outBlk := own, buf.Block{} // outBlk zero: own's storage is not ours to rotate
	for k := 0; k < p-1; k++ {
		recvSeg := (rel - k - 1 + p) % p
		rLo, rHi := seg(recvSeg)
		inBlk := free[0]
		free = free[1:]
		in := inBlk.Slice(0, int(rHi-rLo))
		if err := c.ringHop(out, right, in, left, func(lo, hi int64) error {
			return unpack(in.Slice(int(lo), int(hi-lo)), rLo+lo, rLo+hi)
		}); err != nil {
			return err
		}
		if outBlk.Len() > 0 {
			free = append(free, outBlk)
		}
		out, outBlk = in, inBlk
	}
	return nil
}

// bcastPipelined is the large-message broadcast schedule: the packed
// stream splits into one segment per rank, a binomial scatter places
// each rank's segment (phase 1), and a ring allgather circulates the
// segments while every rank unpacks them into its layout (phase 2).
// Each payload byte crosses the root's memory once and every other
// rank's twice (unpack + forward stream), against the binomial tree's
// ⌈log₂ p⌉ relays of the whole message; the ring hops overlap each
// piece's unpack with the next piece's flight.
func (c *Comm) bcastPipelined(b buf.Block, root int, plan *datatype.Plan) error {
	n := plan.Bytes()
	p := c.size
	rel := (c.rank - root + p) % p
	abs := func(r int) int { return (r + root) % p }
	segLo := func(r int) int64 { return int64(r) * n / int64(p) }
	seg := func(r int) (int64, int64) { return segLo(r), segLo(r + 1) }
	st := plan.Stats()
	// Per-packed-byte costs of the compiled passes, charged
	// proportionally per segment so the whole message prices exactly
	// one gather (at the sender of each block) and one scatter (at
	// each unpacking rank).
	packUnit := c.cache.GatherCost(b.Region(), c.internal.Region(), st, genericCompiled) / float64(n)
	scatterUnit := c.cache.ScatterCost(c.internal.Region(), b.Region(), st, genericCompiled) / float64(n)

	myLo, myHi := seg(rel)
	parent, kids := treeLinks(rel, p)
	var scratch buf.Block // packed segments [rel, rel+span) at non-roots
	if parent >= 0 {
		blockN := segLo(rel+subtreeSpan(rel, p)) - myLo
		scratch = c.transitAlloc(b, blockN)
		defer buf.PutPooled(scratch)
		if err := c.crecv(scratch.Slice(0, int(blockN)), abs(parent)); err != nil {
			return legWrap(abs(parent), "pipeline-scatter", err)
		}
	}
	// Forward subtree blocks to the children, largest subtree first;
	// the root packs each block straight off its layout and overlaps
	// the pack of block k+1 with the flight of block k.
	var pending *Request
	var pendingBlk buf.Block
	pendingPeer := -1
	flush := func() error {
		if pending == nil {
			return nil
		}
		_, err := pending.Wait()
		buf.PutPooled(pendingBlk)
		pending, pendingBlk = nil, buf.Block{}
		if err != nil {
			return legWrap(pendingPeer, "pipeline-scatter", err)
		}
		return nil
	}
	for kids != 0 {
		m := 1 << (bits.Len(uint(kids)) - 1)
		kids &^= m
		child := rel + m
		lo, hi := segLo(child), segLo(child+subtreeSpan(child, p))
		if rel == 0 {
			blk := c.transitAlloc(b, hi-lo)
			c.clock.Advance(vclock.FromSeconds(packUnit * float64(hi-lo)))
			if err := plan.PackRange(b, blk.Slice(0, int(hi-lo)), lo, hi); err != nil {
				buf.PutPooled(blk)
				return err
			}
			req := c.cisend(blk.Slice(0, int(hi-lo)), abs(child), collTag)
			if err := flush(); err != nil {
				return err
			}
			pending, pendingBlk, pendingPeer = req, blk, abs(child)
			continue
		}
		if err := c.csend(scratch.Slice(int(lo-myLo), int(hi-lo)), abs(child)); err != nil {
			return legWrap(abs(child), "pipeline-scatter", err)
		}
	}
	if err := flush(); err != nil {
		return err
	}

	unpack := func(stream buf.Block, lo, hi int64) error {
		c.clock.Advance(vclock.FromSeconds(scatterUnit * float64(hi-lo)))
		if err := plan.UnpackRange(stream, b, lo, hi); err != nil {
			return err
		}
		datatype.RecordStagedTransfer(hi - lo)
		return nil
	}

	// Phase 2: ring allgather of the packed segments. Each rank's step-0
	// contribution is its own segment — the root packs it fresh, every
	// other rank reuses the packed bytes it just received (and unpacks
	// them into its layout before the ring starts).
	var own buf.Block
	var ownBlk buf.Block
	if rel == 0 {
		ownBlk = c.transitAlloc(b, myHi-myLo)
		defer buf.PutPooled(ownBlk)
		c.clock.Advance(vclock.FromSeconds(packUnit * float64(myHi-myLo)))
		if err := plan.PackRange(b, ownBlk.Slice(0, int(myHi-myLo)), myLo, myHi); err != nil {
			return err
		}
		own = ownBlk.Slice(0, int(myHi-myLo))
	} else {
		own = scratch.Slice(0, int(myHi-myLo))
		if err := unpack(own, myLo, myHi); err != nil {
			return err
		}
	}
	ringUnpack := unpack
	if rel == 0 {
		// The root already holds every byte (the segments originated
		// from its buffer); it joins the ring purely to forward packed
		// blocks, so its unpack stage is a no-op — each payload byte
		// crosses the root's memory once, in the initial packs.
		ringUnpack = func(buf.Block, int64, int64) error { return nil }
	}
	return c.packedRing(rel, abs, seg, own, ringUnpack)
}

// allgatherPipelined is the packed-segment ring behind AllgatherType's
// large legs when the slot layout cannot take a fused one-pass scatter
// (overlapping repeated instances — the extent-resized halo slots):
// instead of staging a pack+unpack at every hop, each rank packs its
// contribution once and the ring forwards the packed slots verbatim,
// each hop unpacking the received slot into its layout with the
// chunk-streamed overlap of ringHop. The slot self-copy has already
// run; slot r of recv carries rank r's contribution on return.
func (c *Comm) allgatherPipelined(send buf.Block, sendCount int, sendTy *datatype.Type, slot func(int) (buf.Block, int), recvTy *datatype.Type, sp, rp *datatype.Plan) error {
	n := sp.Bytes()
	recv, recvCount := slot(0)
	sst := sendTy.Stats(sendCount)
	rst := recvTy.Stats(recvCount)
	packCost := c.cache.GatherCost(send.Region(), c.internal.Region(), sst, genericCompiled)
	scatterUnit := c.cache.ScatterCost(c.internal.Region(), recv.Region(), rst, genericCompiled) / float64(n)

	ownBlk := c.transitAlloc(send, n)
	defer buf.PutPooled(ownBlk)
	c.clock.Advance(vclock.FromSeconds(packCost))
	if err := sp.PackRange(send, ownBlk.Slice(0, int(n)), 0, n); err != nil {
		return err
	}

	// Every slot is one full packed segment of a virtual concatenated
	// stream: segment r is slot r's packed bytes at [r*n, (r+1)*n).
	// The ring delivers segment (rank-k-1) at step k, so the absolute
	// range identifies which receive slot a piece scatters into.
	seg := func(r int) (int64, int64) { return int64(r) * n, int64(r+1) * n }
	abs := func(r int) int { return r }
	return c.packedRing(c.rank, abs, seg, ownBlk.Slice(0, int(n)), func(stream buf.Block, lo, hi int64) error {
		src := int(lo / n)
		view, _ := slot(src)
		sLo, sHi := lo-int64(src)*n, hi-int64(src)*n
		c.clock.Advance(vclock.FromSeconds(scatterUnit * float64(sHi-sLo)))
		if err := rp.UnpackRange(stream, view, sLo, sHi); err != nil {
			return err
		}
		datatype.RecordStagedTransfer(sHi - sLo)
		return nil
	})
}
