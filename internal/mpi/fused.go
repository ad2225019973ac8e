package mpi

import (
	"fmt"
	"math"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// errNegativeCount mirrors the inline ErrCount wrapping of p2p.go.
func errNegativeCount(count int) error {
	return fmt.Errorf("%w: %d", ErrCount, count)
}

// This file implements the fused zero-copy rendezvous: the sendv
// path, where a plan-driven typed send copies directly from the
// sender's user layout into the receiver's user layout in one pass.
// The staged rendezvous moves every payload byte twice — pack into a
// staging buffer, unpack out of it — which is exactly the redundant
// software copy the paper blames for non-contiguous sends losing to
// the manual-copy bound. The fused path removes the staging buffer,
// the second pass, and the internal-chunk bookkeeping: the sender
// walks the pair schedule of the two compiled plans
// (datatype.FusedCopy) and the payload crosses each memory system
// once, like an XPMEM/CMA single-copy or a scatter-capable NIC.
//
// Fallbacks keep the semantics of the staged path byte-for-byte:
//
//   - eager-sized messages take the ordinary staged typed path (the
//     fused engine needs the rendezvous handshake to learn the
//     receiver's layout);
//   - receivers whose layout cannot legally take a one-pass scatter
//     (overlapping instances, uncompilable plans) stage as before;
//   - aliased sender/receiver buffers (a fused self-send) and
//     mismatched payload sizes run a sender-local staged emulation, so
//     the receiver still never unpacks.

// fusedDst is the receiver→sender descriptor of a typed rendezvous
// receive whose layout the sender may scatter into directly. It rides
// simnet.RdvMatch.FusedDst as an opaque value; only this package
// creates and consumes it.
type fusedDst struct {
	user  buf.Block
	plan  *datatype.Plan
	stats layout.Stats
	need  int64
}

// SendvType is the plan-driven fused send of a derived datatype, the
// "sendv" scheme: under the rendezvous protocol the payload moves
// straight from this rank's user layout into the receiver's buffer in
// a single compiled pass — no MPI-internal chunk buffers, no staging
// allocation, no receive-side unpack. Eager-sized messages fall back
// to the staged typed path, as do layouts the fused engine cannot
// serve (see the file comment); the call is then semantically
// identical to SendType.
func (c *Comm) SendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTypedFused(b, count, ty, dest, tag, sendFlags{})
}

// SsendvType is SendvType under forced rendezvous: even eager-sized
// payloads take the fused handshake path.
func (c *Comm) SsendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTypedFused(b, count, ty, dest, tag, sendFlags{forceRdv: true})
}

// IsendvType starts a non-blocking fused send with SendvType
// semantics, like an MPI_Isend that scatters straight into the typed
// receiver's layout: the envelope enters the fabric before the call
// returns (program order holds), the rendezvous completes in the
// background, and the fused path still performs zero staging
// allocations.
func (c *Comm) IsendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsyncSend(func(cc *Comm, fl sendFlags) error {
		return cc.sendTypedFused(b, count, ty, dest, tag, fl)
	})
}

// IssendvType is IsendvType under forced rendezvous: even eager-sized
// payloads take the fused handshake path.
func (c *Comm) IssendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsyncSend(func(cc *Comm, fl sendFlags) error {
		fl.forceRdv = true
		return cc.sendTypedFused(b, count, ty, dest, tag, fl)
	})
}

// sendTypedFused is the sender side of the fused rendezvous.
func (c *Comm) sendTypedFused(b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) error {
	p := c.prof
	n := ty.PackSize(count)
	if n == 0 || (!fl.forceRdv && c.eagerOK(n, fl.packed, !fl.asyncReturn && !b.IsVirtual())) {
		// Eager-sized (or empty): stage through the ordinary typed path.
		return c.sendTyped(b, count, ty, dest, tag, fl)
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	if err := plan.Validate(b); err != nil {
		// Argument errors surface locally, before the rendezvous
		// envelope enters the fabric — the same order as SendType,
		// whose NewPacker validates before anything is delivered.
		return err
	}
	st := ty.Stats(count)
	wireBW := fl.wireBW
	if wireBW == 0 {
		// No MPI-internal buffers are involved, so the internal-pool
		// degradation of large typed sends does not apply: the wire
		// term runs at the nominal injection bandwidth, like the
		// reference send.
		wireBW = p.NetBandwidth
	}
	wire := float64(n) / wireBW

	fl.sendv = true
	c.clock.Advance(vclock.FromSeconds(p.SendOverhead))
	m := c.newRdvMessage(dest, tag, n, fl)
	err = c.deliverRdv(m, dest, tag)
	fl.signalDelivered()
	if err != nil {
		return err
	}
	match, err := c.awaitMatch(m, dest, tag)
	if err != nil {
		return err
	}
	ctsAt := match.MatchTime + dur(c.linkLatency(dest))
	c.clock.AdvanceTo(ctsAt)

	// A fused receiver takes delivery in its own layout (fd.user); a
	// contiguous or fused-declining one in match.Dst. covered is the
	// stream prefix the receiver has room for.
	fd, _ := match.FusedDst.(*fusedDst)
	recv, covered := match.Dst, minInt64(n, int64(match.Dst.Len()))
	if fd != nil {
		recv, covered = fd.user, minInt64(n, fd.need)
	}
	if c.faultsOn() && !c.retry.WholeReplay && m.Ack != nil {
		chunkSz := p.InternalChunk()
		if schunks := int((covered + chunkSz - 1) / chunkSz); schunks > 1 {
			// Selective chunk retransmission over the fused rendezvous:
			// replays re-pack only the damaged stream ranges — through a
			// chunk-sized staging hop into a fused receiver's layout, or
			// straight into a contiguous receiver's block.
			var attemptCost float64
			x := &chunkedXfer{
				covered: covered, chunkSize: chunkSz, chunks: schunks,
				drainAll: func() error {
					copyCost, err := c.fusedMove(plan, fd, match.Dst, b, st, n, covered)
					if err != nil {
						return err
					}
					attemptCost = math.Max(copyCost, wire)
					c.clock.Advance(vclock.FromSeconds(attemptCost))
					return nil
				},
				resend: func(lo, hi int64) error {
					if fd != nil {
						scratch := c.transitAlloc(b, hi-lo)
						err := plan.PackRange(b, scratch, lo, hi)
						if err == nil {
							err = fd.plan.UnpackRange(scratch, fd.user, lo, hi)
						}
						buf.PutPooled(scratch)
						if err != nil {
							return err
						}
					} else if err := plan.PackRange(b, match.Dst.Slice(int(lo), int(hi-lo)), lo, hi); err != nil {
						return err
					}
					c.clock.Advance(vclock.FromSeconds(attemptCost * float64(hi-lo) / float64(covered)))
					return nil
				},
				sum: func(lo, hi int64) (uint64, bool) {
					if b.IsVirtual() || recv.IsVirtual() || hi <= lo {
						return 0, false
					}
					var cs buf.Checksum
					plan.ChecksumRange(b, lo, hi, &cs)
					return cs.Sum64(), true
				},
				damage: func(f simnet.Fault, lo, hi int64) bool {
					if fd != nil {
						return damagePlanRange(fd.plan, fd.user, lo, hi, f)
					}
					return damageContigRange(match.Dst, lo, hi, f)
				},
			}
			return c.rdvSendSelective(m, dest, tag, n, x)
		}
	}

	// Each attempt re-runs the one-pass (or staged-emulation) transfer;
	// under faults the drawn damage lands in the receiver's layout
	// through its own plan, and the checksum claim covers the packed
	// stream both sides can compute without staging.
	return c.rdvSendLoop(m, dest, tag, n, func(f simnet.Fault) (uint64, bool, bool, error) {
		copyCost, err := c.fusedMove(plan, fd, match.Dst, b, st, n, covered)
		if err != nil {
			return 0, false, false, err
		}
		// Attribution happens at the receiver: a contiguous receive
		// records the transfer as fused (one pass, no staging), a
		// fused-declining typed receiver records it as staged when it
		// unpacks. The sender cannot tell the two destinations apart.
		poisoned := f.NeedsResend()
		if poisoned && fd != nil {
			poisoned = !damagePlan(fd.plan, fd.user, covered, f)
		} else if poisoned {
			poisoned = !damageContig(recv, covered, f)
		}
		var sum uint64
		hasSum := m.Ack != nil && !b.IsVirtual() && !recv.IsVirtual() && covered > 0
		if hasSum {
			var cs buf.Checksum
			plan.ChecksumRange(b, 0, covered, &cs)
			sum = cs.Sum64()
		}
		// The single pass and the wire pipeline: the pass feeds the wire
		// run-by-run, so the sender is occupied for the longer of the two.
		c.clock.Advance(vclock.FromSeconds(math.Max(copyCost, wire)))
		return sum, hasSum, poisoned, nil
	})
}

// fusedMove runs one attempt's data movement of the fused rendezvous
// and returns its memory cost. A fused receiver (fd non-nil) with a
// matching size and no aliasing takes the fused fast path: one pass,
// layout to layout, split across workers (and priced at the saturating
// parallel speedup) above the parallel-pack threshold. Aliased buffers
// or a size mismatch fall to the sender-local staged emulation — the
// receiver still takes delivery in its layout, the two passes are paid
// here. A contiguous (or fused-declining) receiver gets the plan packed
// straight into its block dst in one pass.
func (c *Comm) fusedMove(plan *datatype.Plan, fd *fusedDst, dst, b buf.Block, st layout.Stats, n, covered int64) (float64, error) {
	switch {
	case fd == nil:
		cost := c.fusedCopyCost(b, dst, st, layout.Dense(covered), covered)
		if covered == 0 {
			return cost, nil
		}
		return cost, plan.PackRange(b, dst, 0, covered)
	case n == fd.need && !buf.Overlaps(b, fd.user):
		cost := c.fusedCopyCost(b, fd.user, st, fd.stats, n)
		_, err := datatype.FusedCopy(plan, fd.plan, b, fd.user)
		return cost, err
	}
	return c.stagedScatter(plan, fd, b, st, covered)
}

// stagedScatter is the sender-local staged emulation of a fused
// transfer that cannot legally run in one pass: pack the plan into
// staging, scatter it into the receiver's layout, release the staging.
// Two memory passes — but when the payload spans several internal
// chunks the passes run on the chunk-slot pipeline: the pack worker
// fills slot k+1 while this goroutine scatters slot k into the
// receiver's layout, so the cost collapses from gather+scatter to the
// two-stage pipeline bound and the staging footprint shrinks from the
// whole message to the slot ring.
func (c *Comm) stagedScatter(plan *datatype.Plan, fd *fusedDst, b buf.Block, st layout.Stats, nCopy int64) (float64, error) {
	gather := c.cache.GatherCost(b.Region(), c.internal.Region(), st, genericCompiled)
	scatter := c.cache.ScatterCost(c.internal.Region(), fd.user.Region(), fd.stats, genericCompiled)
	chunk := c.prof.InternalChunk()
	chunks := c.prof.Chunks(nCopy)
	// Aliased buffers (a fused self-send) must stage the whole message:
	// the pipeline's pack worker would read user bytes the consumer is
	// concurrently scattering over.
	if chunks > 1 && pipelineEnabled() && !buf.Overlaps(b, fd.user) {
		cost := memsim.PipelinedChunkCost(gather, scatter, chunks, c.prof.PipelineDepth())
		cp, err := datatype.NewChunkPipeline(plan, b, 0, nCopy, chunk, c.prof.PipelineDepth(), c.rank)
		if err != nil {
			return cost, err
		}
		defer cp.Close()
		for {
			ch, ok := cp.Next()
			if !ok {
				break
			}
			if err := fd.plan.UnpackRange(ch.Data, fd.user, ch.Lo, ch.Hi); err != nil {
				return cost, err
			}
			cp.Recycle(ch)
		}
		datatype.RecordStagedTransfer(nCopy)
		return cost, nil
	}
	staging := c.transitAlloc(b, nCopy)
	defer buf.PutPooled(staging)
	cost := gather + scatter
	if nCopy > 0 {
		if err := plan.PackRange(b, staging, 0, nCopy); err != nil {
			return cost, err
		}
		if err := fd.plan.UnpackRange(staging, fd.user, 0, nCopy); err != nil {
			return cost, err
		}
	}
	datatype.RecordStagedTransfer(nCopy)
	return cost, nil
}

// offerFusedDst builds the fused descriptor a typed rendezvous
// receiver hands to a sendv sender, or nil when the layout cannot
// legally take a one-pass scatter (uncompilable plan, overlapping
// repeated instances).
func (c *Comm) offerFusedDst(b buf.Block, count int, ty *datatype.Type, need int64) *fusedDst {
	plan, err := ty.CompilePlan(count)
	if err != nil || !plan.FusedDstSafe() {
		return nil
	}
	return &fusedDst{user: b, plan: plan, stats: ty.Stats(count), need: need}
}
