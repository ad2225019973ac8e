package mpi

import (
	"errors"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
)

// Selective chunk retransmission (sender half). The chunked rendezvous
// engines cut the packed byte stream into the profile's internal
// chunks; under faults each chunk carries its own checksum, the
// receiver NACKs a bitmap of damaged chunks (simnet.ChunkNack), and
// the sender replays only those — re-packing them through the plan's
// stream offsets — instead of the whole transfer. The checksums are of
// the source stream, which cannot change during a send: the first drain
// folds them while it moves the bytes (srcSums — no second read of the
// source) and every replay reuses them. PR 7's whole-transfer replay
// survives as the fallback for checksum-less and single-chunk paths
// (rdvSendLoop).

// chunkedXfer describes one transfer to the selective engine. The
// packed stream's first covered bytes are cut into chunks pieces of
// chunkSize bytes (last one short). Every closure charges its own
// virtual-clock cost; ranges are packed-stream byte offsets.
type chunkedXfer struct {
	covered   int64
	chunkSize int64
	chunks    int
	// hasSum is false when the transfer is unverifiable (virtual
	// payloads): no checksum is computed or claimed.
	hasSum bool

	// drainAll performs the initial full-transfer copy (the engine's
	// normal drain: serial, pipelined slot ring, or fused scatter),
	// recording each chunk's SOURCE checksum in ss as it goes.
	drainAll func(ss srcSums) error
	// resend re-packs and re-lands stream range [lo,hi) only.
	resend func(lo, hi int64) error
	// damage applies a drawn fault's mechanical effect to the landed
	// bytes of [lo,hi); false when it cannot materialise, in which
	// case the chunk travels poisoned.
	damage func(f simnet.Fault, lo, hi int64) bool
}

// rangeOf returns chunk i's packed-stream byte range.
func (x *chunkedXfer) rangeOf(i int) (lo, hi int64) {
	lo = int64(i) * x.chunkSize
	hi = lo + x.chunkSize
	if hi > x.covered {
		hi = x.covered
	}
	return lo, hi
}

// rdvSendSelective drives the sender's attempt loop of a chunked
// rendezvous payload with per-chunk fault draws, per-chunk checksums,
// and bitmap-driven selective replay. The first attempt drains the
// whole transfer through the engine's normal path; each NACKed round
// replays only the damaged chunks and counts them against the fabric's
// retransmission attribution.
func (c *Comm) rdvSendSelective(m *simnet.Message, dest, tag int, n int64, x *chunkedXfer) error {
	pol := c.retry
	attempt := 0
	send := simnet.FullChunkBitmap(x.chunks)
	// One set of per-attempt verdicts for the whole transfer, cleared in
	// place each attempt. Reuse is race-free: they travel to the
	// receiver inside the RdvDone, the receiver reads them only while it
	// verifies that attempt, and this rank sits in awaitAck until the
	// receiver has answered it. The chunk sums are written once, by the
	// first drain.
	poisoned := simnet.NewChunkBitmap(x.chunks)
	dup := simnet.NewChunkBitmap(x.chunks)
	sums := make([]uint64, x.chunks)
	var ss srcSums
	if x.hasSum {
		ss = srcSums{span: x.chunkSize, sums: sums}
	}
	fail := func(err error) error {
		m.PostDone(simnet.RdvDone{Err: err})
		return err
	}
	for {
		if attempt == 0 {
			if err := x.drainAll(ss); err != nil {
				return fail(err)
			}
		} else {
			resent := 0
			var resentBytes int64
			for i := 0; i < x.chunks; i++ {
				if !send.Get(i) {
					continue
				}
				lo, hi := x.rangeOf(i)
				if err := x.resend(lo, hi); err != nil {
					return fail(err)
				}
				resent++
				resentBytes += hi - lo
			}
			c.fabric.NoteChunkRetransmit(c.endpoint(c.rank), resent, resentBytes)
		}
		// Per-chunk fault verdicts for this attempt's chunks. A duplicate
		// fault redelivers the chunk rather than damaging it; the
		// receiver suppresses the extra copy.
		clear(poisoned)
		clear(dup)
		for i := 0; i < x.chunks; i++ {
			if !send.Get(i) {
				continue
			}
			lo, hi := x.rangeOf(i)
			var f simnet.Fault
			if c.faultsOn() {
				f = c.fabric.PayloadChunkFault(c.endpoint(c.rank), c.endpoint(dest), hi-lo)
			}
			if f.Kind == simnet.FaultDuplicate {
				dup.Set(i)
				f = simnet.Fault{}
			}
			if f.NeedsResend() && !x.damage(f, lo, hi) {
				poisoned.Set(i)
			}
		}
		final := m.Ack == nil || attempt >= pol.MaxRetries
		m.PostDone(simnet.RdvDone{
			Arrival: c.clock.Now() + dur(c.linkLatency(dest)),
			Bytes:   n,
			HasSum:  x.hasSum, Final: final,
			Chunks: x.chunks, ChunkSize: x.chunkSize, Covered: x.covered,
			Sent: send, PoisonedChunks: poisoned, Dup: dup,
			ChunkSums: sums,
		})
		if m.Ack == nil {
			return nil
		}
		ack, werr := c.awaitAck(m, dest, tag)
		if werr != nil {
			return werr
		}
		if ack == nil {
			return nil
		}
		if errors.Is(ack, errPeerGone) {
			return &DeliveryError{Op: "rdv-send", Rank: c.rank, Peer: dest, Tag: tag, Attempts: attempt + 1}
		}
		if final {
			return &IntegrityError{Op: "rdv-send", Rank: c.rank, Peer: dest, Tag: tag, Attempts: attempt + 1}
		}
		var nack *simnet.ChunkNack
		if errors.As(ack, &nack) && nack.Damaged != nil {
			// Copied, not kept: the receiver reuses its bitmap for the
			// next attempt's verdict.
			copy(send, nack.Damaged)
		} else {
			// A legacy whole-transfer NACK: replay everything.
			send = simnet.FullChunkBitmap(x.chunks)
		}
		attempt++
		c.fabric.NoteRetry(c.endpoint(c.rank))
		c.clock.Advance(pol.backoff(attempt))
	}
}

// damageContigRange applies a payload fault's mechanical effect to the
// landed bytes of packed-stream range [lo,hi) of a real contiguous
// destination — [0,n) for a whole-transfer attempt; it reports false
// when the damage could not be materialised (virtual or empty blocks),
// in which case the attempt must travel poisoned.
func damageContigRange(dst buf.Block, lo, hi int64, f simnet.Fault) bool {
	if !f.NeedsResend() {
		return true
	}
	if dst.IsVirtual() || hi <= lo || int64(dst.Len()) <= lo {
		return false
	}
	data := dst.Bytes()
	if int64(len(data)) < hi {
		hi = int64(len(data))
	}
	span := hi - lo
	if span <= 0 {
		return false
	}
	switch f.Kind {
	case FaultCorrupt:
		data[lo+f.Offset%span] ^= 0xFF
	case FaultTruncate:
		// The suffix never arrived: damage it where the true payload
		// would have been.
		data[lo+f.Keep%span] ^= 0xFF
	case FaultDrop:
		// Nothing arrived at all and whatever the buffer held stays. Flip
		// one byte so a reused staging block holding the previous
		// (NACKed) attempt cannot accidentally verify.
		data[lo] ^= 0xFF
	}
	return true
}

// damagePlanRange is damageContigRange for a plan-described destination
// layout: the byte at the damaged packed-stream position is flipped
// through the plan's segment table, zero staging.
func damagePlanRange(plan *datatype.Plan, user buf.Block, lo, hi int64, f simnet.Fault) bool {
	if !f.NeedsResend() {
		return true
	}
	if user.IsVirtual() || hi <= lo || plan == nil {
		return false
	}
	span := hi - lo
	pos := lo
	switch f.Kind {
	case FaultCorrupt:
		pos = lo + f.Offset%span
	case FaultTruncate:
		pos = lo + f.Keep%span
	}
	it := plan.Segments()
	it.SeekTo(pos)
	off, runLen := it.Run()
	if runLen <= 0 || off >= int64(user.Len()) {
		return false
	}
	user.Bytes()[off] ^= 0xFF
	return true
}
