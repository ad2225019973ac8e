package mpi

import (
	"errors"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
)

// The sender half of a rendezvous payload. Every engine — the
// contiguous stream, the serial or pipelined typed chunk loop, the
// fused scatter — describes its matched transfer as one stage, and one
// attempt loop runs it. Without faults that is a single drain. Under
// faults each attempt carries the checksums of the source stream,
// which cannot change during a send: the first drain folds them while
// it moves the bytes (srcSums — no second read of the source). A
// damaged attempt is replayed whole, or, when the engine can replay a
// stream range and the payload spans several internal chunks, only in
// its damaged chunks: each chunk then carries its own checksum, the
// receiver NACKs a bitmap of damaged chunks (simnet.ChunkNack), and
// every replay reuses the first drain's sums.

// stage is one matched rendezvous transfer as the attempt loop sees
// it. Every move charges its own virtual-clock cost; ranges are
// packed-stream byte offsets.
type stage struct {
	// covered is the stream prefix the receiver has room for.
	covered int64
	// real is false when either buffer is virtual: nothing lands, so no
	// checksum is computed or claimed.
	real bool
	// drain moves the whole covered stream once (the engine's normal
	// path), recording the SOURCE checksums in ss as it reads.
	drain func(ss srcSums) error
	// resend moves stream range [lo,hi) again; nil for an engine that
	// replays whole transfers only.
	resend func(lo, hi int64) error
	// damage applies a drawn fault's mechanical effect to the landed
	// bytes of [lo,hi); false when it cannot materialise, in which case
	// the range travels poisoned.
	damage func(f simnet.Fault, lo, hi int64) bool
}

// chunkSpan returns internal chunk i's packed-stream byte range of a
// covered prefix cut into size-byte chunks (the last one short).
func chunkSpan(i int, size, covered int64) (lo, hi int64) {
	lo = int64(i) * size
	return lo, min(lo+size, covered)
}

// rdvSend drives the sender's attempts of a matched rendezvous payload
// of n bytes through st: each attempt moves its bytes and hands over to
// rdvVerdict, until the payload is accepted or the budget is spent.
// Replay is selective exactly when faults are armed, the policy allows
// it, the envelope carries an Ack channel, the engine can replay a
// range, and the covered stream spans more than one internal chunk;
// otherwise every attempt drains the whole transfer again.
func (c *Comm) rdvSend(m *simnet.Message, dest, tag int, n int64, st *stage) error {
	size := c.prof.InternalChunk()
	chunks := int((st.covered + size - 1) / size)
	// done is every attempt's Done. Sum storage exists only when a sum
	// is claimed, in ChunkSums (one slot for a whole transfer); the
	// selective descriptor always carries one slot per chunk, with the
	// replay set and the per-attempt verdicts. All of it is allocated
	// once and reused in place. Reuse is race-free: the receiver reads
	// it only while it verifies that attempt, and this rank sits in
	// awaitAck until the receiver has answered it.
	done := simnet.RdvDone{Bytes: n, HasSum: st.real && m.Ack != nil && st.covered > 0}
	span := st.covered
	if c.faultsOn() && !c.retry.WholeReplay && m.Ack != nil && st.resend != nil && chunks > 1 {
		done.Chunks, done.ChunkSize, done.Covered = chunks, size, st.covered
		done.ChunkSums = make([]uint64, chunks)
		done.Sent, done.PoisonedChunks, done.Dup = simnet.FullChunkBitmap(chunks), simnet.NewChunkBitmap(chunks), simnet.NewChunkBitmap(chunks)
		span = size
	} else if done.HasSum {
		done.ChunkSums = make([]uint64, 1)
	}
	var ss srcSums
	if done.HasSum {
		ss = srcSums{span: span, sums: done.ChunkSums}
	}
	for attempt := 0; ; attempt++ {
		var err error
		if attempt == 0 || done.Chunks == 0 {
			err = st.drain(ss)
		} else {
			resent := 0
			var resentBytes int64
			for i := 0; i < chunks && err == nil; i++ {
				if done.Sent.Get(i) {
					lo, hi := chunkSpan(i, size, st.covered)
					err = st.resend(lo, hi)
					resent++
					resentBytes += hi - lo
				}
			}
			if err == nil {
				c.fabric.NoteChunkRetransmit(c.endpoint(c.rank), resent, resentBytes)
			}
		}
		if retry, err := c.rdvVerdict(m, dest, tag, st, &done, attempt, err); !retry {
			return err
		}
	}
}

// rdvVerdict finishes one attempt once its move has run: a move error
// is posted to the receiver and returned. Otherwise it draws the
// attempt's faults — one per sent chunk under selective replay, one for
// the whole transfer otherwise — and applies them to what landed,
// posts Done with the checksum claims, and waits for the receiver's
// verdict. A NACK with budget left asks for a retry — counted, its
// backoff charged, a selective replay narrowed to the damaged chunks;
// otherwise the result is nil once the payload is accepted, or the
// typed error. It is a call of its own so that the drains run under
// rdvSend's small frame: the request halves that run them start on
// small goroutine stacks.
func (c *Comm) rdvVerdict(m *simnet.Message, dest, tag int, st *stage, done *simnet.RdvDone, attempt int, moveErr error) (retry bool, err error) {
	if moveErr != nil {
		m.PostDone(simnet.RdvDone{Err: moveErr})
		return false, moveErr
	}
	pol := c.retry
	me, peer := c.endpoint(c.rank), c.endpoint(dest)
	done.Final = m.Ack == nil || attempt >= pol.MaxRetries
	if done.Chunks > 0 {
		// A duplicate fault redelivers the chunk rather than damaging
		// it; the receiver suppresses the extra copy.
		clear(done.PoisonedChunks)
		clear(done.Dup)
		for i := 0; i < done.Chunks; i++ {
			if !done.Sent.Get(i) {
				continue
			}
			lo, hi := chunkSpan(i, done.ChunkSize, st.covered)
			f := c.fabric.PayloadChunkFault(me, peer, hi-lo)
			if f.Kind == simnet.FaultDuplicate {
				done.Dup.Set(i)
				f = simnet.Fault{}
			}
			if f.NeedsResend() && !st.damage(f, lo, hi) {
				done.PoisonedChunks.Set(i)
			}
		}
	} else {
		var f simnet.Fault
		if c.faultsOn() {
			f = c.fabric.PayloadFault(me, peer, done.Bytes)
		}
		done.Poisoned = f.NeedsResend() && !st.damage(f, 0, st.covered)
		if done.HasSum {
			done.Sum = done.ChunkSums[0]
		}
	}
	done.Arrival = c.clock.Now() + dur(c.linkLatency(dest))
	m.PostDone(*done)
	if m.Ack == nil {
		return false, nil
	}
	ack, err := c.awaitAck(m, dest, tag)
	if err != nil || ack == nil {
		return false, err
	}
	if done.Final {
		return false, &IntegrityError{Op: "rdv-send", Rank: c.rank, Peer: dest, Tag: tag, Attempts: attempt + 1, Want: done.Sum}
	}
	var nack *simnet.ChunkNack
	if done.Chunks > 0 && errors.As(ack, &nack) {
		// Copied, not kept: the receiver reuses its bitmap for the
		// next attempt's verdict.
		copy(done.Sent, nack.Damaged)
	}
	c.fabric.NoteRetry(me)
	c.clock.Advance(pol.backoff(attempt + 1))
	return true, nil
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
