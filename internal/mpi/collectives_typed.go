package mpi

import (
	"fmt"
	"sync"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/vclock"
)

// This file implements the typed collective engine: every collective
// is expressed over datatype layouts, and the classic byte-buffer
// collectives in collectives.go are thin wrappers viewing their blocks
// through a datatype.Contiguous layout. The engine's legs are the
// typed point-to-point paths — past the eager limit a remote leg rides
// the fused sendv rendezvous, so a gather scatters straight between
// rank layouts with zero staging — and the root's own
// contribution is a single datatype.FusedCopy instead of a loopback
// send. Dense layouts (the wrappers, contiguous slots) take the raw
// contiguous protocol paths, byte- and cost-identical to the classic
// collectives.
//
// Algorithm selection keys off the per-leg payload size and the
// installation's memory hierarchy (perfmodel.CollectiveTreeLimit):
// small gathers run a binomial fan-in tree of packed slots
// (latency-bound legs, ⌈log₂ p⌉ rounds), large ones the linear fan
// whose legs each cross the memory system exactly once. Broadcast
// relays the same layout unchanged, so it always uses the tree.

// contigTypes caches committed Contiguous(n, Byte) types for the
// byte-buffer collective wrappers, keyed by length: collectives are
// called with a handful of recurring sizes, so steady state is a
// read-locked map hit returning the cached plan. The cache is bounded
// like the per-type plan cache — past the bound, types are still
// built, just not retained, so a pathological size sweep cannot leak
// memory.
var contigTypes struct {
	mu     sync.RWMutex
	bySize map[int]*datatype.Type
}

// maxContigTypes bounds the wrapper-type cache.
const maxContigTypes = 256

// contigByteType returns a committed n-byte contiguous type.
func contigByteType(n int) (*datatype.Type, error) {
	contigTypes.mu.RLock()
	ty := contigTypes.bySize[n]
	contigTypes.mu.RUnlock()
	if ty != nil {
		return ty, nil
	}
	ty, err := datatype.Contiguous(n, datatype.Byte)
	if err != nil {
		return nil, err
	}
	if err := ty.Commit(); err != nil {
		return nil, err
	}
	contigTypes.mu.Lock()
	if q, ok := contigTypes.bySize[n]; ok {
		ty = q // lost a benign build race; settle on one identity
	} else if len(contigTypes.bySize) < maxContigTypes {
		if contigTypes.bySize == nil {
			contigTypes.bySize = make(map[int]*datatype.Type, 8)
		}
		contigTypes.bySize[n] = ty
	}
	contigTypes.mu.Unlock()
	return ty, nil
}

// contigView returns the (count, type) layout view of a dense n-byte
// block — the datatype.Contiguous layout the classic collectives ride
// the typed engine through.
func contigView(n int) (int, *datatype.Type, error) {
	if n == 0 {
		return 0, datatype.Byte, nil
	}
	ty, err := contigByteType(n)
	return 1, ty, err
}

// typedSpan returns one past the last byte offset count instances of
// ty touch in a buffer (0 for empty messages).
func typedSpan(ty *datatype.Type, count int) int64 {
	if count <= 0 || ty.Size() == 0 {
		return 0
	}
	return int64(count-1)*ty.Extent() + ty.TrueLB() + ty.TrueExtent()
}

// collSlotView returns the sub-block of b at byte offset off that a
// (count × ty) collective leg reads or writes, validating capacity.
// what names the collective for the error text.
func collSlotView(b buf.Block, off int64, count int, ty *datatype.Type, what string) (buf.Block, error) {
	need := typedSpan(ty, count)
	if off < 0 || off+need > int64(b.Len()) {
		return buf.Block{}, fmt.Errorf("%w: %s needs %d bytes at offset %d, buffer has %d",
			ErrTruncate, what, need, off, b.Len())
	}
	return b.Slice(int(off), b.Len()-int(off)), nil
}

// collSlotOff returns the byte offset of rank-slot r: instance
// r*count, MPI's slot rule for equal-count collectives.
func collSlotOff(r, count int, ty *datatype.Type) int64 {
	return int64(r) * int64(count) * ty.Extent()
}

// contigWindow returns the dense window of a (count × ty) leg when the
// whole message is a single run, so dense legs ride the raw contiguous
// protocol paths.
func contigWindow(view buf.Block, count int, ty *datatype.Type) (buf.Block, bool) {
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return buf.Block{}, false
	}
	off, ok := plan.ContigWindow()
	if !ok {
		return buf.Block{}, false
	}
	return view.Slice(int(off), int(plan.Bytes())), true
}

// collSend transmits one collective leg to dest over the collective
// tag: dense windows ride the contiguous protocol, typed layouts the
// fused sendv rendezvous (which itself falls back to the staged typed
// path at eager sizes, exactly like SendvType). leg names the leg's
// topology role for fault attribution (CollectiveError.Leg).
func (c *Comm) collSend(view buf.Block, count int, ty *datatype.Type, dest int, leg string) error {
	if w, ok := contigWindow(view, count, ty); ok {
		return legWrap(dest, leg, c.sendContig(w, dest, collTag, sendFlags{}))
	}
	return legWrap(dest, leg, c.sendTypedFused(view, count, ty, dest, collTag, sendFlags{}))
}

// collRecv receives one collective leg from src.
func (c *Comm) collRecv(view buf.Block, count int, ty *datatype.Type, src int, leg string) error {
	if w, ok := contigWindow(view, count, ty); ok {
		_, err := c.recvContig(w, src, collTag)
		return legWrap(src, leg, err)
	}
	_, err := c.recvTyped(view, count, ty, src, collTag)
	return legWrap(src, leg, err)
}

// collIsend starts a collective leg send whose completion the caller
// folds in after its paired receive (ring and pairwise exchange
// steps). The leg attribution travels inside the request, so it
// surfaces at Wait.
func (c *Comm) collIsend(view buf.Block, count int, ty *datatype.Type, dest int, leg string) *Request {
	if w, ok := contigWindow(view, count, ty); ok {
		return c.startAsyncSend(&Request{kind: opSendContig, b: w, peer: dest, tag: collTag, leg: leg})
	}
	return c.startAsyncSend(&Request{kind: opSendFused, b: view, count: count, ty: ty, peer: dest, tag: collTag, leg: leg})
}

// typedSelfCopy is the root's own leg of a typed collective: a single
// fused pass straight from the send layout into the receive layout —
// no loopback send, no staging allocation. Destinations whose repeated
// instances interleave (not FusedDstSafe) and aliased buffers fall
// back to a pooled staged copy with the sequential-unpack semantics
// those cases require.
func (c *Comm) typedSelfCopy(sb buf.Block, scount int, sty *datatype.Type, db buf.Block, dcount int, dty *datatype.Type) error {
	sp, err := sty.CompilePlan(scount)
	if err != nil {
		return err
	}
	dp, err := dty.CompilePlan(dcount)
	if err != nil {
		return err
	}
	if err := sp.Validate(sb); err != nil {
		return err
	}
	if err := dp.Validate(db); err != nil {
		return err
	}
	n := minInt64(sp.Bytes(), dp.Bytes())
	if n == 0 {
		return nil
	}
	sst, dst := sty.Stats(scount), dty.Stats(dcount)
	if dp.FusedDstSafe() && !buf.Overlaps(sb, db) {
		c.clock.Advance(vclock.FromSeconds(c.fusedCopyCost(sb.Region(), db.Region(), &sst, &dst, n)))
		_, err := datatype.FusedCopy(sp, dp, sb, db)
		return err
	}
	staging := c.transitAlloc(sb, n)
	defer buf.PutPooled(staging)
	c.clock.Advance(vclock.FromSeconds(c.cache.StagedCollectiveLegCost(sb.Region(), staging.Region(), db.Region(), sst, dst)))
	if err := sp.PackRange(sb, staging, 0, n); err != nil {
		return err
	}
	if err := dp.UnpackRange(staging, db, 0, n); err != nil {
		return err
	}
	datatype.RecordStagedTransfer(n)
	return nil
}

// BcastType broadcasts count instances of a derived datatype from
// root's buffer into every rank's layout, like MPI_Bcast with a
// non-contiguous type. Small messages relay the same layout over a
// binomial tree — past the eager limit each hop is a fused sendv leg
// that scatters straight into the receiver's layout with zero staging.
// Non-contiguous messages past the installation's CollectiveTreeLimit
// switch to the pipelined scatter+allgather schedule (bcastPipelined):
// the packed stream scatters as per-rank segments and a chunk-streamed
// ring circulates them, so each payload byte crosses a relay's memory
// twice instead of ⌈log₂ p⌉ whole-message passes, with every piece's
// unpack overlapped against the next piece's flight.
func (c *Comm) BcastType(b buf.Block, count int, ty *datatype.Type, root int) error {
	return c.collErr("BcastType", c.bcastType(b, count, ty, root))
}

func (c *Comm) bcastType(b buf.Block, count int, ty *datatype.Type, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	if err := plan.Validate(b); err != nil {
		return err
	}
	if c.size == 1 {
		return nil
	}
	if g := c.twoLevel(); g != nil {
		return c.bcastTwoLevel(b, count, ty, root, g)
	}
	if n := plan.Bytes(); c.size > 2 && n > c.prof.CollectiveTreeLimit() {
		// Dense layouts keep the tree of raw contiguous hops; the
		// scatter+allgather win is the relay's pack passes, which a
		// dense relay does not pay.
		if _, dense := plan.ContigWindow(); !dense {
			return c.bcastPipelined(b, count, ty, root, plan)
		}
	}
	rel := (c.rank - root + c.size) % c.size
	abs := func(r int) int { return (r + root) % c.size }
	mask := 1
	for mask < c.size {
		if rel&mask != 0 {
			if err := c.collRecv(b, count, ty, abs(rel-mask), "tree-parent"); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel&mask == 0 && rel+mask < c.size {
			if err := c.collSend(b, count, ty, abs(rel+mask), "tree-child"); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// GatherType concentrates typed contributions at the root in rank
// order, like MPI_Gather with derived datatypes: each rank sends
// sendCount instances of sendTy; the root receives rank r's
// contribution as recvCount instances of recvTy at byte offset
// r*recvCount*recvTy.Extent() of recv. recv, recvCount and recvTy are
// consulted only at the root. Remote legs past the eager limit ride
// the fused rendezvous straight into the root's slot layouts; the
// root's own contribution is a single fused copy. Legs at or under the
// installation's CollectiveTreeLimit fan in over a binomial tree of
// packed slots instead (the classic latency-bound switch); tree mode
// assumes every rank contributes the same type signature, like MPI.
func (c *Comm) GatherType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, root int) error {
	return c.collErr("GatherType", c.gatherType(send, sendCount, sendTy, recv, recvCount, recvTy, root))
}

func (c *Comm) gatherType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if sendCount < 0 {
		return errNegativeCount(sendCount)
	}
	sp, err := sendTy.CompilePlan(sendCount)
	if err != nil {
		return err
	}
	if err := sp.Validate(send); err != nil {
		return err
	}
	n := sp.Bytes()
	if c.rank == root {
		if recvCount < 0 {
			return errNegativeCount(recvCount)
		}
		rp, err := recvTy.CompilePlan(recvCount)
		if err != nil {
			return err
		}
		if rp.Bytes() != n {
			return fmt.Errorf("%w: gather slot holds %d bytes, contribution is %d", ErrTruncate, rp.Bytes(), n)
		}
		// Validate every slot before the first leg moves, so a short
		// receive buffer fails locally instead of mid-protocol.
		for r := 0; r < c.size; r++ {
			if _, err := collSlotView(recv, collSlotOff(r, recvCount, recvTy), recvCount, recvTy, "gather"); err != nil {
				return err
			}
		}
	}
	if c.size == 1 {
		view, err := collSlotView(recv, 0, recvCount, recvTy, "gather")
		if err != nil {
			return err
		}
		return c.typedSelfCopy(send, sendCount, sendTy, view, recvCount, recvTy)
	}
	if c.prof.UseCollectiveTree(c.size, n) {
		return c.gatherTree(send, sendCount, sendTy, recv, recvCount, recvTy, root, n)
	}
	if c.rank != root {
		return c.collSend(send, sendCount, sendTy, root, "fan-in")
	}
	for r := 0; r < c.size; r++ {
		view, err := collSlotView(recv, collSlotOff(r, recvCount, recvTy), recvCount, recvTy, "gather")
		if err != nil {
			return err
		}
		if r == root {
			if err := c.typedSelfCopy(send, sendCount, sendTy, view, recvCount, recvTy); err != nil {
				return err
			}
			continue
		}
		if err := c.collRecv(view, recvCount, recvTy, r, "fan-in"); err != nil {
			return err
		}
	}
	return nil
}

// subtreeSpan returns how many rank slots the binomial subtree rooted
// at relative rank rel holds in a size-rank fan (itself plus every
// subtree it absorbs).
func subtreeSpan(rel, size int) int {
	span := 1
	for mask := 1; mask < size && rel&mask == 0; mask <<= 1 {
		if child := rel + mask; child < size {
			cs := mask
			if r := size - child; r < cs {
				cs = r
			}
			span += cs
		}
	}
	return span
}

// gatherTree is the binomial fan-in for small typed gathers: every
// rank packs its contribution once (compiled), subtree blocks combine
// in ⌈log₂ p⌉ rounds of contiguous sends, and the root unpacks each
// remote slot into its receive layout. The root's own contribution
// still goes straight into the receive layout as a fused copy and
// never touches the packed scratch.
func (c *Comm) gatherTree(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, root int, n int64) error {
	rel := (c.rank - root + c.size) % c.size
	abs := func(r int) int { return (r + root) % c.size }
	span := subtreeSpan(rel, c.size)
	scratch := c.transitAlloc(send, int64(span)*n)
	defer buf.PutPooled(scratch)
	sp, err := sendTy.CompilePlan(sendCount)
	if err != nil {
		return err
	}
	if rel != 0 {
		// Pack my own contribution into slot 0 of the scratch.
		st := sendTy.Stats(sendCount)
		c.clock.Advance(vclock.FromSeconds(c.cache.GatherCost(send.Region(), scratch.Region(), st, genericCompiled)))
		if err := sp.PackRange(send, scratch.Slice(0, int(n)), 0, n); err != nil {
			return err
		}
	}
	for mask := 1; mask < c.size; mask <<= 1 {
		if rel&mask != 0 {
			// Forward my subtree block to the parent and stop.
			return c.csend(scratch.Slice(0, int(int64(span)*n)), abs(rel-mask))
		}
		child := rel + mask
		if child >= c.size {
			continue
		}
		childSpan := subtreeSpan(child, c.size)
		dst := scratch.Slice(int(int64(mask)*n), int(int64(childSpan)*n))
		if err := c.crecv(dst, abs(child)); err != nil {
			return err
		}
	}
	// Root: unpack every remote slot, fuse its own.
	rp, err := recvTy.CompilePlan(recvCount)
	if err != nil {
		return err
	}
	rst := recvTy.Stats(recvCount)
	for q := 1; q < c.size; q++ {
		view, err := collSlotView(recv, collSlotOff(abs(q), recvCount, recvTy), recvCount, recvTy, "gather")
		if err != nil {
			return err
		}
		c.clock.Advance(vclock.FromSeconds(c.cache.ScatterCost(scratch.Region(), recv.Region(), rst, genericCompiled)))
		if err := rp.UnpackRange(scratch.Slice(int(int64(q)*n), int(n)), view, 0, n); err != nil {
			return err
		}
		datatype.RecordStagedTransfer(n)
	}
	view, err := collSlotView(recv, collSlotOff(root, recvCount, recvTy), recvCount, recvTy, "gather")
	if err != nil {
		return err
	}
	return c.typedSelfCopy(send, sendCount, sendTy, view, recvCount, recvTy)
}

// GathervType is GatherType with per-rank receive counts and slot
// displacements, like MPI_Gatherv: the root receives rank r's
// contribution as recvCounts[r] instances of recvTy at displacement
// displs[r], measured in units of recvTy's extent. It always runs the
// linear fan (slots are irregular, so the packed-tree arithmetic does
// not apply); remote legs and the root self-leg behave exactly as in
// GatherType.
func (c *Comm) GathervType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCounts, displs []int, recvTy *datatype.Type, root int) error {
	return c.collErr("GathervType", c.gathervType(send, sendCount, sendTy, recv, recvCounts, displs, recvTy, root))
}

func (c *Comm) gathervType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCounts, displs []int, recvTy *datatype.Type, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if sendCount < 0 {
		return errNegativeCount(sendCount)
	}
	sp, err := sendTy.CompilePlan(sendCount)
	if err != nil {
		return err
	}
	if err := sp.Validate(send); err != nil {
		return err
	}
	if c.rank != root {
		return c.collSend(send, sendCount, sendTy, root, "fan-in")
	}
	if len(recvCounts) != c.size || len(displs) != c.size {
		return fmt.Errorf("%w: gatherv needs %d counts and displacements, have %d/%d",
			ErrCount, c.size, len(recvCounts), len(displs))
	}
	slot := func(r int) (buf.Block, error) {
		if recvCounts[r] < 0 {
			return buf.Block{}, errNegativeCount(recvCounts[r])
		}
		return collSlotView(recv, int64(displs[r])*recvTy.Extent(), recvCounts[r], recvTy, "gatherv")
	}
	for r := 0; r < c.size; r++ {
		if _, err := slot(r); err != nil {
			return err
		}
	}
	if cnt := recvCounts[root]; recvTy.PackSize(cnt) != sp.Bytes() {
		return fmt.Errorf("%w: gatherv root slot holds %d bytes, contribution is %d",
			ErrTruncate, recvTy.PackSize(cnt), sp.Bytes())
	}
	for r := 0; r < c.size; r++ {
		view, _ := slot(r)
		if r == root {
			if err := c.typedSelfCopy(send, sendCount, sendTy, view, recvCounts[r], recvTy); err != nil {
				return err
			}
			continue
		}
		if err := c.collRecv(view, recvCounts[r], recvTy, r, "fan-in"); err != nil {
			return err
		}
	}
	return nil
}

// ScattervType distributes typed slots of the root's buffer with
// per-rank send counts and slot displacements, like MPI_Scatterv with
// derived datatypes: rank r receives sendCounts[r] instances of sendTy
// taken from displacement displs[r], measured in units of sendTy's
// extent, as recvCount instances of recvTy. sendCounts, displs, send
// and sendTy are consulted only at the root. Linear fan only, like
// GathervType.
func (c *Comm) ScattervType(send buf.Block, sendCounts, displs []int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, root int) error {
	return c.collErr("ScattervType", c.scattervType(send, sendCounts, displs, sendTy, recv, recvCount, recvTy, root))
}

func (c *Comm) scattervType(send buf.Block, sendCounts, displs []int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if recvCount < 0 {
		return errNegativeCount(recvCount)
	}
	rp, err := recvTy.CompilePlan(recvCount)
	if err != nil {
		return err
	}
	if err := rp.Validate(recv); err != nil {
		return err
	}
	if c.rank != root {
		return c.collRecv(recv, recvCount, recvTy, root, "fan-out")
	}
	if len(sendCounts) != c.size || len(displs) != c.size {
		return fmt.Errorf("%w: scatterv needs %d counts and displacements, have %d/%d",
			ErrCount, c.size, len(sendCounts), len(displs))
	}
	slot := func(r int) (buf.Block, error) {
		if sendCounts[r] < 0 {
			return buf.Block{}, errNegativeCount(sendCounts[r])
		}
		return collSlotView(send, int64(displs[r])*sendTy.Extent(), sendCounts[r], sendTy, "scatterv")
	}
	for r := 0; r < c.size; r++ {
		if _, err := slot(r); err != nil {
			return err
		}
	}
	if cnt := sendCounts[root]; sendTy.PackSize(cnt) != rp.Bytes() {
		return fmt.Errorf("%w: scatterv root slot holds %d bytes, receive expects %d",
			ErrTruncate, sendTy.PackSize(cnt), rp.Bytes())
	}
	for r := 0; r < c.size; r++ {
		view, _ := slot(r)
		if r == root {
			if err := c.typedSelfCopy(view, sendCounts[r], sendTy, recv, recvCount, recvTy); err != nil {
				return err
			}
			continue
		}
		if err := c.collSend(view, sendCounts[r], sendTy, r, "fan-out"); err != nil {
			return err
		}
	}
	return nil
}

// AllgatherType concentrates every rank's typed contribution at every
// rank using the ring algorithm, like MPI_Allgather with derived
// datatypes: rank r's contribution lands as recvCount instances of
// recvTy at byte offset r*recvCount*recvTy.Extent() of every recv
// buffer. Each rank first fuses its own contribution into its own slot
// (no loopback send), then the ring forwards slots between identical
// receive layouts — past the eager limit every hop is a fused sendv
// leg with zero staging.
func (c *Comm) AllgatherType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type) error {
	return c.collErr("AllgatherType", c.allgatherType(send, sendCount, sendTy, recv, recvCount, recvTy))
}

func (c *Comm) allgatherType(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type) error {
	if sendCount < 0 {
		return errNegativeCount(sendCount)
	}
	if recvCount < 0 {
		return errNegativeCount(recvCount)
	}
	sp, err := sendTy.CompilePlan(sendCount)
	if err != nil {
		return err
	}
	if err := sp.Validate(send); err != nil {
		return err
	}
	rp, err := recvTy.CompilePlan(recvCount)
	if err != nil {
		return err
	}
	if rp.Bytes() != sp.Bytes() {
		return fmt.Errorf("%w: allgather slot holds %d bytes, contribution is %d", ErrTruncate, rp.Bytes(), sp.Bytes())
	}
	slot := func(r int) (buf.Block, error) {
		return collSlotView(recv, collSlotOff(r, recvCount, recvTy), recvCount, recvTy, "allgather")
	}
	for r := 0; r < c.size; r++ {
		if _, err := slot(r); err != nil {
			return err
		}
	}
	own, _ := slot(c.rank)
	if err := c.typedSelfCopy(send, sendCount, sendTy, own, recvCount, recvTy); err != nil {
		return err
	}
	if c.size == 1 {
		return nil
	}
	if g := c.twoLevel(); g != nil && g.contig {
		return c.allgatherTwoLevel(send, sendCount, sendTy, recv, recvCount, recvTy, g)
	}
	if n := rp.Bytes(); c.size > 2 && n > c.prof.CollectiveTreeLimit() && !rp.FusedDstSafe() {
		// Large slots the fused engine cannot scatter into (overlapping
		// repeated instances — the extent-resized halo slots) would
		// stage a pack+unpack at every hop of the typed ring; the
		// packed-segment ring packs once and streams each hop through
		// the pipelined chunk engine instead.
		return c.allgatherPipelined(send, sendCount, sendTy, recv, recvCount, recvTy, sp, rp)
	}
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	// Step k: forward the slot that originated k hops upstream.
	blk := c.rank
	for k := 0; k < c.size-1; k++ {
		sv, _ := slot(blk)
		req := c.collIsend(sv, recvCount, recvTy, right, "ring-send")
		blk = (blk - 1 + c.size) % c.size
		rv, _ := slot(blk)
		if err := c.collRecv(rv, recvCount, recvTy, left, "ring-recv"); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
	}
	return nil
}
