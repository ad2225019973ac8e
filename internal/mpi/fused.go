package mpi

import (
	"math"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

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
	return c.startAsyncSend(&Request{kind: opSendFused, b: b, count: count, ty: ty, peer: dest, tag: tag}), nil
}

// sendTypedFused is the sender side of the fused rendezvous: open the
// handshake, then move the payload. They are two calls so that the
// open's frame (and the staged typed path under it) has left the stack
// when the transfer's cost-and-copy chain runs; a background half then
// does not outgrow the stack it starts with.
func (c *Comm) sendTypedFused(b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) error {
	var x fusedXfer
	m, err := c.fusedOpen(&x, b, count, ty, dest, tag, fl)
	if m == nil {
		return err
	}
	return c.fusedTransfer(m, dest, tag, &x)
}

// fusedOpen validates the send, runs the rendezvous handshake and
// describes the matched transfer in x. A nil envelope means there is
// nothing left to transfer: the payload was eager-sized (or empty) and
// went the ordinary staged typed way, or the send failed.
func (c *Comm) fusedOpen(x *fusedXfer, b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) (*simnet.Message, error) {
	n := ty.PackSize(count)
	if n == 0 || (!fl.forceRdv && c.prof.Eager(n, fl.packed)) {
		return nil, c.sendTyped(b, count, ty, dest, tag, fl)
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(b); err != nil {
		// Argument errors surface locally, before the rendezvous
		// envelope enters the fabric — the same order as SendType,
		// whose NewPacker validates before anything is delivered.
		return nil, err
	}
	fl.sendv = true
	m, match, err := c.rdvHandshake(dest, tag, n, &fl)
	if err != nil {
		return nil, err
	}
	c.clock.AdvanceTo(match.MatchTime + dur(c.linkLatency(dest)))

	// A fused receiver takes delivery in its own layout (fd.user); a
	// contiguous or fused-declining one in match.Dst. covered is the
	// stream prefix the receiver has room for.
	// No MPI-internal buffers are involved, so the internal-pool
	// degradation of large typed sends does not apply: the wire term
	// runs at the nominal injection bandwidth, like the reference send.
	*x = fusedXfer{plan: plan, b: b, st: ty.Stats(count), dst: match.Dst, n: n, wire: float64(n) / c.prof.NetBandwidth,
		recv: match.Dst, covered: minInt64(n, int64(match.Dst.Len()))}
	if x.fd, _ = match.FusedDst.(*fusedDst); x.fd != nil {
		x.recv, x.covered = x.fd.user, minInt64(n, x.fd.need)
	}
	return m, nil
}

// fusedXfer is one matched fused rendezvous as its attempts see it: the
// sender's plan over its block b, where the payload lands (fd's layout
// for a fused receiver, the block dst otherwise; recv is whichever of
// the two takes delivery), and the stream prefix covered the receiver
// has room for.
type fusedXfer struct {
	plan       *datatype.Plan
	b          buf.Block
	st         layout.Stats
	fd         *fusedDst
	dst, recv  buf.Block
	n, covered int64
	wire       float64
}

// fusedTransfer moves a matched rendezvous' payload, attempt by attempt.
// Each attempt re-runs the one-pass (or staged-emulation) transfer;
// under faults the drawn damage lands in the receiver's layout through
// its own plan, and the checksum claims cover the packed stream both
// sides can compute without staging. A selective replay re-packs only
// the damaged stream ranges — through a chunk-sized staging hop into a
// fused receiver's layout, or straight into a contiguous receiver's
// block. Attribution happens at the receiver: a contiguous receive
// records the transfer as fused (one pass, no staging), a
// fused-declining typed receiver records it as staged when it unpacks.
func (c *Comm) fusedTransfer(m *simnet.Message, dest, tag int, x *fusedXfer) error {
	var attemptCost float64
	return c.rdvSend(m, dest, tag, x.n, &stage{
		covered: x.covered,
		real:    !x.b.IsVirtual() && !x.recv.IsVirtual(),
		drain: func(ss srcSums) error {
			copyCost, err := c.fusedMove(x, ss)
			if err != nil {
				return err
			}
			// The single pass and the wire pipeline: the pass feeds the
			// wire run-by-run, so the sender is occupied for the longer
			// of the two.
			attemptCost = math.Max(copyCost, x.wire)
			c.clock.Advance(vclock.FromSeconds(attemptCost))
			return nil
		},
		resend: func(lo, hi int64) error {
			if x.fd != nil {
				scratch := c.transitAlloc(x.b, hi-lo)
				err := x.plan.PackRange(x.b, scratch, lo, hi)
				if err == nil {
					err = x.fd.plan.UnpackRange(scratch, x.fd.user, lo, hi)
				}
				buf.PutPooled(scratch)
				if err != nil {
					return err
				}
			} else if err := x.plan.PackRange(x.b, x.dst.Slice(int(lo), int(hi-lo)), lo, hi); err != nil {
				return err
			}
			c.clock.Advance(vclock.FromSeconds(attemptCost * float64(hi-lo) / float64(x.covered)))
			return nil
		},
		damage: func(f simnet.Fault, lo, hi int64) bool {
			if x.fd != nil {
				return damagePlanRange(x.fd.plan, x.fd.user, lo, hi, f)
			}
			return damageContigRange(x.dst, lo, hi, f)
		},
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
// straight into its block dst in one pass. Whichever pass reads the
// source folds ss's checksums on the way.
func (c *Comm) fusedMove(x *fusedXfer, ss srcSums) (float64, error) {
	fd := x.fd
	switch {
	case fd == nil:
		dense := layout.Dense(x.covered)
		cost := c.fusedCopyCost(x.b.Region(), x.dst.Region(), &x.st, &dense, x.covered)
		if x.covered == 0 {
			return cost, nil
		}
		return cost, x.plan.PackRangeSum(x.b, x.dst, 0, x.covered, ss.span, ss.sums)
	case x.n == fd.need && !buf.Overlaps(x.b, fd.user):
		cost := c.fusedCopyCost(x.b.Region(), fd.user.Region(), &x.st, &fd.stats, x.n)
		_, err := datatype.FusedCopySum(x.plan, fd.plan, x.b, fd.user, ss.span, ss.sums)
		return cost, err
	}
	return c.stagedScatter(x.plan, fd, x.b, &x.st, x.covered, ss)
}

// stagedScatter is the sender-local staged emulation of a fused
// transfer that cannot legally run in one pass: pack the plan into
// staging, scatter it into the receiver's layout, release the staging.
// Two memory passes — but when the payload spans several internal
// chunks the passes run on the chunk-slot pipeline: the pack worker
// fills slot k+1 while this goroutine scatters slot k into the
// receiver's layout, so the cost collapses from gather+scatter to the
// two-stage pipeline bound and the staging footprint shrinks from the
// whole message to the slot ring. With either buffer virtual no byte
// can land, so both sides' chunks are attributed in closed form,
// chunk for chunk as the ring would attribute them.
func (c *Comm) stagedScatter(plan *datatype.Plan, fd *fusedDst, b buf.Block, st *layout.Stats, nCopy int64, ss srcSums) (float64, error) {
	gather := c.cache.GatherCost(b.Region(), c.internal.Region(), *st, genericCompiled)
	scatter := c.cache.ScatterCost(c.internal.Region(), fd.user.Region(), fd.stats, genericCompiled)
	chunk := c.prof.InternalChunk()
	chunks := c.prof.Chunks(nCopy)
	// Aliased buffers (a fused self-send) must stage the whole message:
	// the pipeline's pack worker would read user bytes the consumer is
	// concurrently scattering over.
	if chunks > 1 && !buf.Overlaps(b, fd.user) {
		cost := memsim.PipelinedChunkCost(gather, scatter, chunks, c.prof.PipelineDepth())
		if b.IsVirtual() || fd.user.IsVirtual() {
			plan.RecordChunks(0, nCopy, chunk, true)
			fd.plan.RecordChunks(0, nCopy, chunk, false)
			datatype.RecordStagedTransfer(nCopy)
			return cost, nil
		}
		cp, err := datatype.NewChunkPipelineSum(plan, b, 0, nCopy, chunk, c.prof.PipelineDepth(), c.rank, ss.span)
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
			if ss.sums != nil {
				ss.sums[ch.Lo/ss.span] = ch.Sum
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
		if err := plan.PackRangeSum(b, staging, 0, nCopy, ss.span, ss.sums); err != nil {
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
// legally take a one-pass scatter (overlapping repeated instances).
func offerFusedDst(b buf.Block, count int, ty *datatype.Type, plan *datatype.Plan, need int64) *fusedDst {
	if !plan.FusedDstSafe() {
		return nil
	}
	return &fusedDst{user: b, plan: plan, stats: ty.Stats(count), need: need}
}
