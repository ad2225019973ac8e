package mpi

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// sendFlags tunes the internal send paths.
type sendFlags struct {
	// packed marks a payload gathered in user space (manual copy or
	// MPI_Pack output); it feeds the Cray packed-eager artefact.
	packed bool
	// forceRdv forces the rendezvous protocol (SsendType).
	forceRdv bool
	// onConsume runs when the receiver matches the message (BsendType
	// buffer release; bsendShip delivers such payloads itself).
	onConsume func()
	// isend, when non-nil, is the request whose starter must be
	// released as soon as the envelope has entered the fabric; a
	// non-blocking send uses it to pin program-order delivery.
	isend *Request
	// sendv marks a plan-driven fused rendezvous send (SendvType): the
	// typed receiver may expose its user layout for the direct
	// one-pass scatter instead of allocating staging.
	sendv bool
	// pipelined routes the rendezvous chunk loop through the
	// software-pipelined chunk engine (SendpType, collective legs):
	// chunk k+1 packs into the slot ring while chunk k injects, priced
	// by memsim.PipelinedChunkCost. The measured installations
	// serialise the two stages (§2.3), so the paper schemes leave it
	// unset.
	pipelined bool
}

// sendContig implements every contiguous-payload send: the reference
// scheme, the manual-copy scheme, and packed sends. The payload block
// is read as one stream.
//
// Timing: the sender pays SendOverhead, then its occupancy is the
// maximum of reading the payload from memory and injecting it into the
// wire (they pipeline); the payload lands NetLatency after injection
// completes. Rendezvous adds the RTS/CTS round trip before the data
// can flow and removes the receive-side bounce-buffer copy.
func (c *Comm) sendContig(b buf.Block, dest, tag int, fl sendFlags) error {
	n := int64(b.Len())
	p := c.prof
	wire := float64(n) / p.NetBandwidth
	if !fl.forceRdv && p.Eager(n, fl.packed) {
		// Eager: payload copied to a transit buffer; under faults every
		// retransmission ships a fresh copy.
		occupy := math.Max(c.cache.StreamCost(b.Region(), n), wire)
		return c.sendEager("send", dest, tag, n, occupy, fl, func() (buf.Block, error) { return c.transitCopy(b), nil })
	}
	// Rendezvous: RTS, wait for the matched receive, stream zero-copy.
	m, match, err := c.rdvHandshake(dest, tag, n, &fl)
	if err != nil {
		return err
	}
	c.clock.AdvanceTo(match.MatchTime + dur(c.linkLatency(dest)))
	occupy := math.Max(c.cache.StreamCost(b.Region(), n), wire)
	nCopy := min(n, int64(match.Dst.Len()))
	return c.rdvSend(m, dest, tag, n, &stage{
		covered: nCopy,
		real:    !b.IsVirtual() && !match.Dst.IsVirtual(),
		drain: func(ss srcSums) error {
			c.clock.Advance(vclock.FromSeconds(occupy))
			buf.CopyAt(match.Dst, 0, b, 0, int(nCopy))
			if ss.sums != nil {
				var cs buf.Checksum
				cs.Write(b.Bytes()[:nCopy])
				ss.sums[0] = cs.Sum64()
			}
			return nil
		},
		damage: func(f simnet.Fault, lo, hi int64) bool { return damageContigRange(match.Dst, lo, hi, f) },
	})
}

// sendEager ships an eager payload attempt by attempt: fill builds each
// attempt's transit block, and span is how long packing and injection
// occupy the sender. Under faults each retransmission follows the
// modeled ACK-timeout backoff.
func (c *Comm) sendEager(op string, dest, tag int, n int64, span float64, fl sendFlags, fill func() (buf.Block, error)) error {
	attempt := 0
	for {
		transit, err := fill()
		if err != nil {
			fl.isend.signalPosted()
			return err
		}
		c.clock.Advance(vclock.FromSeconds(c.prof.SendOverhead))
		injectEnd := c.clock.Now() + dur(span)
		c.clock.AdvanceTo(injectEnd)
		f := c.deliverEager(dest, tag, transit, n, injectEnd, fl)
		fl.isend.signalPosted()
		again, err := c.eagerRetryStep(&attempt, op, dest, tag, f)
		if err != nil || !again {
			return err
		}
	}
}

// rdvHandshake opens a rendezvous: it pays the send overhead, injects
// the RTS envelope — releasing a waiting non-blocking starter once it is in
// the fabric — and waits for the receiver's match.
func (c *Comm) rdvHandshake(dest, tag int, n int64, fl *sendFlags) (*simnet.Message, simnet.RdvMatch, error) {
	c.clock.Advance(vclock.FromSeconds(c.prof.SendOverhead))
	m := c.newRdvMessage(dest, tag, n, *fl)
	err := c.deliverRdv(m, dest, tag)
	fl.isend.signalPosted()
	if err != nil {
		return nil, simnet.RdvMatch{}, err
	}
	match, err := c.awaitMatch(m, dest, tag)
	return m, match, err
}

// deliverRdv injects a rendezvous control envelope, retransmitting
// after the modeled backoff when the armed fault plan discards it (a
// damaged RTS fails the link-level CRC and counts as a drop).
func (c *Comm) deliverRdv(m *simnet.Message, dest, tag int) error {
	attempt := 0
	for {
		f := c.fabric.Deliver(c.endpoint(dest), m)
		again, err := c.eagerRetryStep(&attempt, "rdv-rts", dest, tag, f)
		if err != nil || !again {
			return err
		}
		m.Arrival = c.clock.Now() + dur(c.linkLatency(dest))
	}
}

// sendTyped implements the derived-datatype direct send: MPI packs the
// payload through its internal chunk buffers and transmits, without
// pack/inject overlap (§2.3), at the internally degraded bandwidth
// (§4.1). Under fl.pipelined the rendezvous chunk loop runs on the
// software-pipelined chunk engine instead: chunk k+1 packs into the
// slot ring while chunk k injects, and the span collapses to the
// two-stage pipeline bound (memsim.PipelinedChunkCost).
func (c *Comm) sendTyped(b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) error {
	p := c.prof
	n := ty.PackSize(count)
	packer, err := ty.NewPacker(b, count)
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	chunks := p.Chunks(n)
	eager := !fl.forceRdv && p.Eager(n, fl.packed)
	// The pipelined engine needs the rendezvous chunk loop (eager
	// sends pack in one shot before the envelope leaves); under the
	// reference-[2] NIC what-if the hardware already overlaps, so the
	// software ring would only add a copy.
	pipelined := fl.pipelined && !eager && chunks > 1 && !p.NICPipelining
	var k memsim.Kernel // the interpreting serial loop
	if pipelined {
		// The slot ring is filled by the plan's compiled kernel, one
		// internal chunk at a time by a single pack worker.
		k.Engine = PlanKernel(packer.Plan()).Engine
	}
	gather := c.cache.GatherCost(b.Region(), c.internal.Region(), st, k)
	wireBW := p.InternalBW(n)
	if p.NICPipelining {
		// Reference [2]: the NIC reads user memory directly, so the
		// internal buffer pool and its large-message bookkeeping
		// degradation disappear.
		wireBW = p.NetBandwidth
	}
	wire := 0.0
	if n > 0 {
		wire = float64(n) / wireBW
	}
	bookkeeping := float64(chunks) * p.ChunkOverhead
	packWork := gather + bookkeeping
	// transferSpan is how long pack+inject occupy the sender once the
	// payload may flow: serialised in the measured installations
	// (§2.3: no pipelining in practice). Under the reference-[2]
	// what-if the NIC gathers straight from user memory, so the core
	// pack loop disappears entirely: the span is the maximum of the
	// wire time and the NIC's own line-granular memory traffic at
	// streaming bandwidth, plus per-chunk registration bookkeeping
	// exposed as pipeline fill. The software-pipelined engine keeps
	// the core pack loop but overlaps it chunk-by-chunk with the
	// injection through the slot ring.
	transferSpan := packWork + wire
	if p.NICPipelining {
		h := c.cache.Hierarchy()
		nicRead := float64(h.Traffic(st))/h.StreamBW + bookkeeping
		packWork = nicRead
		fill := nicRead
		if chunks > 0 {
			fill = nicRead / float64(chunks)
		}
		transferSpan = fill + wire
		if nicRead > transferSpan {
			transferSpan = nicRead
		}
	}
	if pipelined {
		transferSpan = memsim.PipelinedChunkCost(packWork, wire, chunks, p.PipelineDepth())
	}

	// Every attempt after the first packs through a fresh packer.
	first := true
	attemptPacker := func() (*datatype.Packer, error) {
		if first {
			first = false
			return packer, nil
		}
		return ty.NewPacker(b, count)
	}
	if eager {
		return c.sendEager("send-typed", dest, tag, n, transferSpan, fl, func() (buf.Block, error) {
			pk, err := attemptPacker()
			if err != nil {
				return buf.Block{}, err
			}
			transit := c.transitAlloc(b, n)
			if _, err := pk.Pack(transit); err != nil {
				buf.PutPooled(transit)
				return buf.Block{}, err
			}
			return transit, nil
		})
	}

	sendStart := c.clock.Now() + dur(p.SendOverhead)
	m, match, err := c.rdvHandshake(dest, tag, n, &fl)
	if err != nil {
		return err
	}
	ctsAt := match.MatchTime + dur(p.NetLatency)
	// Cray MPICH hides the handshake of internally packed sends behind
	// the first chunk's packing (§4.5: no visible eager drop for the
	// derived-type schemes there).
	var packFrom vclock.Time
	if p.ContigOnlyEagerDrop {
		packFrom = sendStart
		if ctsAt > packFrom+dur(packWork) {
			packFrom = ctsAt - dur(packWork)
		}
	} else {
		packFrom = ctsAt
	}
	c.clock.AdvanceTo(packFrom)
	// Chunk loop: pack a chunk, inject a chunk — serialised in the
	// measured installations, overlapped under NIC pipelining or the
	// software-pipelined slot ring. A selective replay re-packs only
	// the damaged stream ranges through the compiled plan.
	plan := packer.Plan()
	return c.rdvSend(m, dest, tag, n, &stage{
		covered: min(n, int64(match.Dst.Len())),
		real:    !b.IsVirtual() && !match.Dst.IsVirtual(),
		drain: func(ss srcSums) error {
			pk, err := attemptPacker()
			if err != nil {
				return err
			}
			if pipelined {
				err = c.drainPipelined(pk.Plan(), b, match.Dst, n, ss)
			} else {
				err = c.drainPacker(pk, b, match.Dst, n, ss)
			}
			if err != nil {
				return err
			}
			c.clock.Advance(vclock.FromSeconds(transferSpan))
			if end := ctsAt + dur(wire); c.clock.Now() < end {
				// The wire cannot start before the CTS even when packing
				// was prefetched.
				c.clock.AdvanceTo(end)
			}
			return nil
		},
		resend: func(lo, hi int64) error {
			if err := plan.PackRange(b, match.Dst.Slice(int(lo), int(hi-lo)), lo, hi); err != nil {
				return err
			}
			c.clock.Advance(vclock.FromSeconds((packWork + wire) * float64(hi-lo) / float64(n)))
			return nil
		},
		damage: func(f simnet.Fault, lo, hi int64) bool { return damageContigRange(match.Dst, lo, hi, f) },
	})
}

// srcSums is where a sender's drain records the checksums of the source
// stream, folded by the moves: sums[i] covers packed bytes [i·span,
// (i+1)·span) — span is the internal chunk under selective replay, the
// covered stream for a whole-transfer attempt. The zero value records
// nothing (clean fabrics, virtual payloads).
type srcSums struct {
	span int64
	sums []uint64
}

// drainPacker streams the packed byte sequence of user into dst
// through internal-chunk-sized pieces — the mechanical counterpart of
// the cost charged in sendTyped. When either buffer is virtual no byte
// lands and no sum exists, so a multi-chunk drain is attributed in
// closed form, chunk for chunk as the loop would.
func (c *Comm) drainPacker(packer *datatype.Packer, user, dst buf.Block, n int64, ss srcSums) error {
	limit := min(n, int64(dst.Len()))
	chunk := c.prof.InternalChunk()
	if (user.IsVirtual() || dst.IsVirtual()) && limit > chunk {
		packer.RecordChunks(limit, chunk)
		return nil
	}
	var off int64
	var cs buf.Checksum
	var sum *buf.Checksum
	if ss.sums != nil {
		sum = &cs
	}
	for off < limit {
		sz := chunk
		if off+sz > limit {
			sz = limit - off
		}
		if sum != nil && off%ss.span == 0 {
			cs.Reset()
		}
		if _, err := packer.PackSum(dst.Slice(int(off), int(sz)), sum); err != nil {
			return err
		}
		if sum != nil {
			ss.sums[off/ss.span] = cs.Sum64()
		}
		off += sz
	}
	return nil
}

// drainPipelined is the software-pipelined counterpart of drainPacker:
// a pack worker fills the bounded slot ring a configurable depth ahead
// (datatype.ChunkPipeline) while this goroutine injects each packed
// slot into the destination, so chunk k+1 packs while chunk k injects.
// The ring is the path's entire allocation footprint — depth pooled
// slots from this rank's shard, recycled in place and released on
// return. The pack worker folds ss's sums while it fills a slot. With
// either buffer virtual there is nothing to pack, inject or sum: the
// chunks are attributed in closed form, with no ring, worker or slot.
func (c *Comm) drainPipelined(plan *datatype.Plan, user, dst buf.Block, n int64, ss srcSums) error {
	limit := min(n, int64(dst.Len()))
	if user.IsVirtual() || dst.IsVirtual() {
		plan.RecordChunks(0, limit, c.prof.InternalChunk(), true)
		return nil
	}
	cp, err := datatype.NewChunkPipelineSum(plan, user, 0, limit, c.prof.InternalChunk(), c.prof.PipelineDepth(), c.rank, ss.span)
	if err != nil {
		return err
	}
	defer cp.Close()
	for {
		ch, ok := cp.Next()
		if !ok {
			return nil
		}
		buf.CopyAt(dst, int(ch.Lo), ch.Data, 0, int(ch.Hi-ch.Lo))
		if ss.sums != nil {
			ss.sums[ch.Lo/ss.span] = ch.Sum
		}
		cp.Recycle(ch)
	}
}

// newRdvMessage builds a rendezvous envelope with its RTS arrival
// stamped. Under faults the envelope carries the per-attempt Ack
// channel of the checksum/NACK loop.
func (c *Comm) newRdvMessage(dest, tag int, n int64, fl sendFlags) *simnet.Message {
	m := simnet.NewRendezvous(c.fabric.Tracking())
	m.Ctx, m.Src, m.Tag = c.ctx, c.endpoint(c.rank), tag
	m.Bytes, m.Arrival = n, c.clock.Now()+dur(c.linkLatency(dest))
	m.Packed, m.Sendv = fl.packed, fl.sendv
	if c.faultsOn() {
		m.Ack = make(chan error, 1)
	}
	return m
}

// deliverEager ships a transit payload and returns the fault verdict.
// Under faults the payload carries the sender's checksum, and
// OnConsume stays off the wire (a dropped or discarded copy would
// otherwise leak it, or never fire it) — the send paths fire it
// locally once the payload's fate is settled.
func (c *Comm) deliverEager(dest, tag int, transit buf.Block, n int64, injectEnd vclock.Time, fl sendFlags) simnet.Fault {
	m := &simnet.Message{
		Ctx:       c.ctx,
		Src:       c.endpoint(c.rank),
		Tag:       tag,
		Kind:      simnet.KindEager,
		Payload:   transit,
		Bytes:     n,
		Arrival:   injectEnd + dur(c.linkLatency(dest)),
		Packed:    fl.packed,
		OnConsume: fl.onConsume,
	}
	if c.faultsOn() {
		m.Sum = buf.ChecksumOf(transit)
		m.HasSum = true
		m.OnConsume = nil
	}
	return c.fabric.Deliver(c.endpoint(dest), m)
}

// transitCopy clones a payload into a fabric-owned transit block,
// virtual when the source is virtual. Transit blocks come from this
// rank's shard of the size-classed pool (buf.GetPooledFor) and are
// released by the receive completion that consumes them — PutPooled
// returns the storage to the allocating rank's shard, so ranks never
// contend on one free list per class.
func (c *Comm) transitCopy(b buf.Block) buf.Block {
	if b.IsVirtual() {
		return buf.Virtual(b.Len())
	}
	t := buf.GetPooledFor(c.rank, b.Len())
	buf.Copy(t, b)
	return t
}

// transitAlloc allocates a transit block of n bytes matching the
// reality of the user buffer, from this rank's pool shard. Real
// blocks carry undefined contents; every caller fills them completely
// (eager pack, rendezvous stream) before the receiver reads.
func (c *Comm) transitAlloc(user buf.Block, n int64) buf.Block {
	if user.IsVirtual() {
		return buf.Virtual(int(n))
	}
	return buf.GetPooledFor(c.rank, int(n))
}

// recvContig receives into a contiguous buffer; src and tag may be
// wildcards.
func (c *Comm) recvContig(b buf.Block, src, tag int) (Status, error) {
	post := c.clock.Now()
	m, err := c.matchVerified(src, tag)
	if err != nil {
		return Status{}, err
	}
	st := Status{Source: c.localRank(m.Src), Tag: m.Tag, Count: m.Bytes}
	return st, c.land(m, post, b, nil, int64(b.Len()), 0, nil)
}

// recvTyped receives a typed message, scattering into the datatype
// layout.
func (c *Comm) recvTyped(b buf.Block, count int, ty *datatype.Type, src, tag int) (Status, error) {
	// Argument errors surface here, before the match; the unpacker is
	// built only when a staged payload is scattered (a fused match never
	// does).
	plan, err := ty.CompilePlan(count)
	if err == nil {
		err = plan.Validate(b)
	}
	if err != nil {
		return Status{}, err
	}
	need := ty.PackSize(count)
	post := c.clock.Now()
	m, err := c.matchVerified(src, tag)
	if err != nil {
		return Status{}, err
	}
	st := Status{Source: c.localRank(m.Src), Tag: m.Tag, Count: m.Bytes}
	scatter := c.cache.ScatterCost(c.internal.Region(), b.Region(), ty.Stats(count), memsim.Kernel{})
	// A staged payload (eager transit, rendezvous staging) is scattered
	// into b's layout once it has landed.
	unpack := func(packed buf.Block) error {
		u, err := ty.NewUnpacker(b, count)
		if err == nil {
			_, err = u.Unpack(packed)
		}
		if err == nil {
			datatype.RecordStagedTransfer(int64(packed.Len()))
		}
		return err
	}
	if m.Kind != simnet.KindRendezvous {
		return st, c.land(m, post, b, nil, need, scatter, unpack)
	}
	if m.Sendv {
		if fd := offerFusedDst(b, count, ty, plan, need); fd != nil {
			// Fused: expose the user layout; the sendv sender scatters
			// straight into it (or runs its local staged emulation) —
			// either way the payload arrives in place and this rank
			// never allocates staging or unpacks.
			return st, c.land(m, post, b, fd, need, 0, nil)
		}
		// The layout cannot take a one-pass scatter (overlapping
		// instances, uncompilable plan): stage like any typed
		// rendezvous; the sendv sender packs into the staging block in
		// one compiled pass instead.
	}
	// The sender has finished with the staging block once it posts
	// Done, so it is recycled whatever the outcome.
	staging := c.transitAlloc(b, min(m.Bytes, need))
	defer buf.PutPooled(staging)
	return st, c.land(m, post, staging, nil, need, scatter, unpack)
}

// land completes a matched receive with room for room bytes. An eager
// payload is copied from its transit block into dst, or handed to
// unpack; a rendezvous sender moves the payload into dst itself — into
// fd's layout instead when the receiver offered one — and every attempt
// is verified before unpack, when set, scatters the landed block. The
// receive overhead plus extra is charged once the payload is complete;
// an eager payload copied into dst pays the bounce-buffer copy of an
// unexpected message as its extra. A message longer than room is
// delivered up to room and reported as truncated.
func (c *Comm) land(m *simnet.Message, post vclock.Time, dst buf.Block, fd *fusedDst, room int64, extra float64, unpack func(packed buf.Block) error) error {
	bytes, landed := m.Bytes, dst
	switch m.Kind {
	case simnet.KindEager:
		c.clock.AdvanceTo(maxTime(m.Arrival, post))
		if err := eagerWireErr(m); err != nil {
			// A payload damaged in flight with no retry machinery armed
			// to re-request it: surface the typed delivery error.
			consumeEager(m)
			return err
		}
		// The transit copy is consumed (and recycled) once it has landed.
		defer consumeEager(m)
		landed = m.Payload.Slice(0, int(min(bytes, room)))
		if unpack == nil {
			// The bounce-buffer copy applies only to *unexpected* eager
			// messages (arrival before the receive was posted); a posted
			// receive takes delivery zero-copy. This is why raising the
			// eager limit over the maximum size "did not appreciably
			// change the results for large messages" (§4.5): a
			// ping-pong receiver is always already waiting.
			if m.Arrival <= post {
				extra = c.cache.CopyCost(m.Payload.Region(), dst.Region(), int64(landed.Len()))
			}
			buf.CopyAt(dst, 0, landed, 0, landed.Len())
		}
	case simnet.KindRendezvous:
		match := simnet.RdvMatch{MatchTime: maxTime(m.Arrival, post), Dst: dst}
		if fd != nil {
			match.FusedDst = fd
		}
		m.PostMatch(match)
		arrival, n, err := c.rdvRecvVerify(m, dst, fd)
		if err != nil {
			return err
		}
		c.clock.AdvanceTo(arrival)
		bytes = n
		if m.Sendv && fd == nil && unpack == nil {
			// A sendv sender packed its layout straight into this
			// contiguous buffer: one pass, no staging anywhere.
			datatype.RecordFusedTransfer(min(bytes, int64(dst.Len())))
		}
		if m.OnConsume != nil {
			m.OnConsume()
		}
	default:
		return fmt.Errorf("mpi: unknown message kind %v", m.Kind)
	}
	c.clock.Advance(vclock.FromSeconds(c.prof.RecvOverhead + extra))
	if unpack != nil && landed.Len() > 0 {
		if err := unpack(landed); err != nil {
			return err
		}
	}
	if bytes > room {
		return errTruncated(bytes, room, fd != nil || unpack != nil)
	}
	return nil
}

// errTruncated reports a bytes-long message delivered into a receive
// with room for room bytes.
func errTruncated(bytes, room int64, typed bool) error {
	what := "receive buffer"
	if typed {
		what = "typed receive"
	}
	return fmt.Errorf("%w: %d-byte message, %d-byte %s", ErrTruncate, bytes, room, what)
}

// matchFrom resolves the wildcard-aware (src, tag) match for this
// communicator.
func (c *Comm) matchFrom(src, tag int) (*simnet.Message, error) {
	ep := simnet.AnySource
	if src != AnySource {
		ep = c.endpoint(src)
	}
	return c.matchEndpoint(ep, tag)
}

// matchEndpoint blocks until a message from the fabric endpoint ep (or
// any, for the wildcard) matches. Under tracking the wait is
// registered with the quiescence detector and honours an abort
// teardown.
func (c *Comm) matchEndpoint(ep, tag int) (*simnet.Message, error) {
	me := c.endpoint(c.rank)
	if !c.fabric.Tracking() {
		m := c.fabric.Match(me, c.ctx, ep, tag)
		if m == nil {
			return nil, c.abortErrFor("recv")
		}
		return m, nil
	}
	// The take counter keeps readiness true between removing the
	// envelope inside MatchOrAbort and deregistering here: a take by any
	// receiver on this mailbox since block time counts as progress, so
	// a descheduled waiter cannot fabricate a quiescent state.
	t0 := c.fabric.Takes(me)
	release := c.fabric.EnterBlocked(simnet.BlockInfo{
		Rank: me, Op: "recv", Ctx: c.ctx, Src: ep, Tag: tag, Since: c.clock.Now(),
	}, func() bool { return c.fabric.Pending(me, c.ctx, ep, tag) || c.fabric.Takes(me) != t0 })
	m, err := c.fabric.MatchOrAbort(me, c.ctx, ep, tag)
	release()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// eagerWireErr reports in-flight damage of a matched eager payload as
// a typed error — the no-retry path (faults disarmed, raw fabric
// injections): Message.Err and advertised-vs-delivered size mismatch
// surface from Recv/Wait instead of silently corrupting the receive.
func eagerWireErr(m *simnet.Message) error {
	if m.Err != nil {
		return m.Err
	}
	if int64(m.Payload.Len()) < m.Bytes {
		return fmt.Errorf("%w: %d of %d bytes arrived", simnet.ErrShortDelivery, m.Payload.Len(), m.Bytes)
	}
	return nil
}

// consumeEager retires a matched eager payload without delivering it.
func consumeEager(m *simnet.Message) {
	if m.OnConsume != nil {
		m.OnConsume()
	}
	buf.PutPooled(m.Payload)
	m.Payload = buf.Block{}
}

// localRank translates a fabric endpoint back to a communicator rank.
func (c *Comm) localRank(endpoint int) int {
	if c.members == nil {
		return endpoint
	}
	for i, ep := range c.members {
		if ep == endpoint {
			return i
		}
	}
	return -1
}

// dur converts a model cost in seconds to a virtual-time offset.
func dur(seconds float64) vclock.Time {
	return vclock.Time(vclock.FromSeconds(seconds))
}

func maxTime(a, b vclock.Time) vclock.Time {
	if a > b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
