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

// fusedDst is the sender's view of a typed rendezvous receive whose
// layout it may scatter into directly. The receiver hands over only its
// compiled plan, through simnet.RdvMatch.FusedDst (a pointer in an
// interface: no allocation); the sender fills this descriptor by value
// inside its fusedXfer from the match's Dst block and the plan's packed
// size and closed-form stats, which the plan computed once when it was
// compiled. plan is nil when the receiver did not offer its layout.
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
	return c.sendTypedChecked(b, count, ty, dest, tag, sendFlags{sendv: true})
}

// IsendvType starts a non-blocking fused send with SendvType
// semantics, like an MPI_Isend that scatters straight into the typed
// receiver's layout: the envelope enters the fabric before the call
// returns (program order holds), the rendezvous completes in the
// background, and the fused path still performs zero staging
// allocations.
func (c *Comm) IsendvType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkTypedSend(count, ty, dest, tag); err != nil {
		return nil, err
	}
	return c.startAsyncSend(asyncOp{kind: opSendFused, b: b, count: count, ty: ty, peer: dest, tag: tag}), nil
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
		fl.sendv = false // an ordinary typed send: no layout to offer
		return nil, c.sendTyped(b, count, ty, dest, tag, fl)
	}
	// Argument errors surface locally, before the rendezvous envelope
	// enters the fabric, as they do for SendType.
	plan, err := typedPlan(b, count, ty)
	if err != nil {
		return nil, err
	}
	fl.sendv = true
	m, match, err := c.rdvHandshake(dest, tag, n, &fl)
	if err != nil {
		return nil, err
	}
	c.clock.AdvanceTo(match.MatchTime + dur(c.linkLatency(dest)))

	// A fused receiver takes delivery in its own layout, described by
	// the plan it offered; a contiguous or fused-declining one as a
	// packed stream. Either way match.Dst is the block that takes
	// delivery, and covered is the stream prefix the receiver has room
	// for.
	// No MPI-internal buffers are involved, so the internal-pool
	// degradation of large typed sends does not apply: the wire term
	// runs at the nominal injection bandwidth, like the reference send.
	*x = fusedXfer{plan: plan, b: b, st: plan.Stats(), dst: match.Dst, n: n, wire: float64(n) / c.prof.NetBandwidth,
		covered: min(n, int64(match.Dst.Len()))}
	if dp, _ := match.FusedDst.(*datatype.Plan); dp != nil {
		x.fd = fusedDst{user: match.Dst, plan: dp, stats: dp.Stats(), need: dp.Bytes()}
		x.covered = min(n, x.fd.need)
	}
	return m, nil
}

// fusedXfer is one matched fused rendezvous as its attempts see it: the
// sender's plan over its block b, the block dst that takes delivery
// (in fd's layout for a fused receiver, as the packed stream
// otherwise), and the stream prefix covered the receiver has room for.
// fd is held by value: a fusedXfer lives in its sender's frame, and
// nothing may point it at its own fields.
type fusedXfer struct {
	plan       *datatype.Plan
	b          buf.Block
	st         layout.Stats
	fd         fusedDst
	dst        buf.Block
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
		real:    !x.b.IsVirtual() && !x.dst.IsVirtual(),
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
			var err error
			if x.fd.plan != nil {
				err = x.plan.StageChunks(x.fd.plan, x.b, x.fd.user, lo, hi, hi-lo, 0, nil, c.rank)
			} else {
				err = x.plan.PackRange(x.b, x.dst.Slice(int(lo), int(hi-lo)), lo, hi)
			}
			if err != nil {
				return err
			}
			c.clock.Advance(vclock.FromSeconds(attemptCost * float64(hi-lo) / float64(x.covered)))
			return nil
		},
		damage: func(f simnet.Fault, lo, hi int64) bool {
			if x.fd.plan != nil {
				return damagePlanRange(x.fd.plan, x.fd.user, lo, hi, f)
			}
			return damageContigRange(x.dst, lo, hi, f)
		},
	})
}

// fusedMove runs one attempt's data movement of the fused rendezvous
// and returns its memory cost. A fused receiver (fd.plan non-nil)
// with a matching size and no aliasing takes the fused fast path: one
// pass, layout to layout, split across workers (and priced at the
// saturating parallel speedup) above the parallel-pack threshold.
// Aliased buffers or a size mismatch fall to the sender-local staged
// emulation — the receiver still takes delivery in its layout, the two
// passes are paid here. A contiguous (or fused-declining) receiver
// gets the plan packed straight into its block dst in one pass.
// Whichever pass reads the source folds ss's checksums on the way.
func (c *Comm) fusedMove(x *fusedXfer, ss srcSums) (float64, error) {
	fd := &x.fd
	switch {
	case fd.plan == nil:
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
// staging, scatter it into the receiver's layout. Two memory passes —
// but over several internal chunks each chunk packs into a chunk-sized
// slot and scatters at once, on the pack workers (Plan.StageChunks),
// priced as the two-stage pipeline bound (memsim.PipelinedChunkCost).
func (c *Comm) stagedScatter(plan *datatype.Plan, fd *fusedDst, b buf.Block, st *layout.Stats, nCopy int64, ss srcSums) (float64, error) {
	gather := c.cache.GatherCost(b.Region(), c.internal.Region(), *st, genericCompiled)
	scatter := c.cache.ScatterCost(c.internal.Region(), fd.user.Region(), fd.stats, genericCompiled)
	chunks := c.prof.Chunks(nCopy)
	// Aliased buffers (a fused self-send) must stage the whole message:
	// a chunk's scatter would overwrite user bytes a later chunk has
	// yet to pack.
	if chunks > 1 && !buf.Overlaps(b, fd.user) {
		cost := memsim.PipelinedChunkCost(gather, scatter, chunks, c.prof.PipelineDepth())
		if err := plan.StageChunks(fd.plan, b, fd.user, 0, nCopy, c.prof.InternalChunk(), ss.span, ss.sums, c.rank); err != nil {
			return cost, err
		}
		datatype.RecordPipelined(chunks, nCopy)
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
