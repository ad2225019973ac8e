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
// stream offsets — instead of the whole transfer. PR 7's
// whole-transfer replay survives as the fallback for checksum-less
// and single-chunk paths (rdvSendLoop).

// chunkedXfer describes one transfer to the selective engine. The
// packed stream's first covered bytes are cut into chunks pieces of
// chunkSize bytes (last one short). Every closure charges its own
// virtual-clock cost; ranges are packed-stream byte offsets.
type chunkedXfer struct {
	covered   int64
	chunkSize int64
	chunks    int

	// drainAll performs the initial full-transfer copy (the engine's
	// normal drain: serial, pipelined slot ring, or fused scatter).
	drainAll func() error
	// resend re-packs and re-lands stream range [lo,hi) only.
	resend func(lo, hi int64) error
	// sum checksums the SOURCE stream over [lo,hi); false when the
	// attempt is unverifiable (virtual payloads, checksum-less paths).
	sum func(lo, hi int64) (uint64, bool)
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
	// receiver has answered it.
	poisoned := simnet.NewChunkBitmap(x.chunks)
	dup := simnet.NewChunkBitmap(x.chunks)
	sums := make([]uint64, x.chunks)
	fail := func(err error) error {
		m.PostDone(simnet.RdvDone{Err: err})
		return err
	}
	for {
		if attempt == 0 {
			if err := x.drainAll(); err != nil {
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
		// Per-chunk fault verdicts and checksums for this attempt's
		// chunks. A duplicate fault redelivers the chunk rather than
		// damaging it; the receiver suppresses the extra copy.
		clear(poisoned)
		clear(dup)
		clear(sums)
		hasSum := true
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
			s, ok := x.sum(lo, hi)
			sums[i] = s
			if !ok {
				hasSum = false
			}
		}
		final := m.Ack == nil || attempt >= pol.MaxRetries
		m.PostDone(simnet.RdvDone{
			Arrival: c.clock.Now() + dur(c.linkLatency(dest)),
			Bytes:   n,
			HasSum:  hasSum, Final: final,
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

// damageContigRange is damageContig restricted to the landed bytes of
// packed-stream range [lo,hi) of a contiguous destination.
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
		data[lo+f.Keep%span] ^= 0xFF
	case FaultDrop:
		data[lo] ^= 0xFF
	}
	return true
}

// damagePlanRange is damagePlan restricted to packed-stream range
// [lo,hi) of a plan-described destination layout.
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
