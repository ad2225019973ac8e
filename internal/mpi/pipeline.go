package mpi

import (
	"repro/internal/buf"
	"repro/internal/datatype"
)

// This file exposes the software-pipelined typed send — the
// "pipelined" scheme — and the chunk-streamed collective hop the
// pipelined collective schedules are built from.
//
// The paper's cost model (§2.3) shows the chunked derived-type send
// serialising pack and inject, and the measured installations never
// overlap the two ("in practice we don't see this performance"), which
// is why SendType keeps the serial chunk loop. SendpType is this
// runtime's own answer: the same rendezvous, with the chunk loop priced
// as a software pipeline PipelineDepth chunks deep, so chunk k+1 packs
// while chunk k is on the wire and the span collapses from pack+wire to
// the two-stage bound (memsim.PipelinedChunkCost). Only the virtual
// clock sees the overlap: the bytes pack once, chunk by chunk on the
// pack workers, straight into the receiver's block.

// SendpType is the software-pipelined typed send: identical semantics
// to SendType, but past the eager limit the rendezvous chunk loop is
// priced as packing overlapped with injection. Eager-sized and
// single-chunk payloads take the ordinary serial typed path.
func (c *Comm) SendpType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	return c.sendTypedChecked(b, count, ty, dest, tag, sendFlags{pipelined: true})
}

// Chunk-streamed collective hops. A pipelined collective schedule
// moves packed blocks between ranks in internal-chunk pieces on
// alternating reserved tags, so a piece's local work (the unpack of
// chunk k) overlaps the next piece's flight. The alternating tags keep
// at most one outstanding receive per (source, tag) pattern, which is
// what the fabric's wildcard matching guarantees order for.
const (
	collChunkTag0 = -3
	collChunkTag1 = -4
)

// chunkTag returns the reserved tag of chunk piece i.
func chunkTag(i int) int {
	if i%2 == 0 {
		return collChunkTag0
	}
	return collChunkTag1
}

// cisend starts an internal async contiguous send on tag.
func (c *Comm) cisend(b buf.Block, dest, tag int) *Request {
	return c.startAsyncSend(asyncOp{kind: opSendContig, b: b, peer: dest, tag: tag})
}

// cirecv starts an internal async contiguous receive on tag.
func (c *Comm) cirecv(b buf.Block, src, tag int) *Request {
	return c.startAsync(asyncOp{kind: opRecvContig, b: b, peer: src, tag: tag}, false)
}

// ringHop is one hop of a pipelined ring schedule: it streams the
// packed block out to dest in internal-chunk pieces while receiving
// the equally-chunked block in from src, calling unpack for each
// received piece. Receives for piece i+1 are posted (on the alternate
// tag) before piece i unpacks, and sends for piece i+1 are issued only
// after piece i's injection completes, so on every rank the unpack of
// chunk k overlaps the flight of chunk k+1 while the injections still
// serialise — the chunk pipeline stretched across the wire. out and in
// may be empty (zero-length) independently, for the edge hops of
// non-ring schedules.
func (c *Comm) ringHop(out buf.Block, dest int, in buf.Block, src int, unpack func(lo, hi int64) error) error {
	chunk := c.prof.InternalChunk()
	outN, inN := int64(out.Len()), int64(in.Len())
	piece := func(b buf.Block, i int64) buf.Block {
		lo := i * chunk
		hi := lo + chunk
		if n := int64(b.Len()); hi > n {
			hi = n
		}
		return b.Slice(int(lo), int(hi-lo))
	}
	outPieces, inPieces := c.prof.Chunks(outN), c.prof.Chunks(inN)

	var sendReq, recvReq *Request
	var sent, recvd int64
	if outPieces > 0 {
		sendReq = c.cisend(piece(out, 0), dest, chunkTag(0))
	}
	if inPieces > 0 {
		recvReq = c.cirecv(piece(in, 0), src, chunkTag(0))
	}
	for sent < outPieces || recvd < inPieces {
		if recvd < inPieces {
			// Complete piece recvd, post piece recvd+1 on the alternate
			// tag, then unpack — the next piece flies while we scatter.
			if _, err := recvReq.Wait(); err != nil {
				return legWrap(src, "pipeline-ring-recv", err)
			}
			if recvd+1 < inPieces {
				recvReq = c.cirecv(piece(in, recvd+1), src, chunkTag(int(recvd+1)))
			}
			lo := recvd * chunk
			hi := lo + int64(piece(in, recvd).Len())
			if err := unpack(lo, hi); err != nil {
				return err
			}
			datatype.RecordPipelined(1, hi-lo)
			recvd++
		}
		if sent < outPieces {
			// Injections serialise: piece sent+1 leaves only after piece
			// sent completed, so the wire term sums exactly as the
			// serial send would.
			if _, err := sendReq.Wait(); err != nil {
				return legWrap(dest, "pipeline-ring-send", err)
			}
			sent++
			if sent < outPieces {
				sendReq = c.cisend(piece(out, sent), dest, chunkTag(int(sent)))
			}
		}
	}
	return nil
}
