package mpi

import (
	"fmt"
	"math/bits"
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
// The topology each collective runs, and when (n is the packed bytes
// of one rank's leg, limit the installation's CollectiveTreeLimit):
//
//	BcastType      two-level    node leaders' binomial tree, then each
//	                            leader's intra-node fan (hierarchical
//	                            machines, see collectives_hier.go)
//	               pipelined    binomial scatter of packed segments, then
//	                            their ring (n > limit, > 2 ranks, the
//	                            layout is not one dense window)
//	               tree         binomial relay of the layout (otherwise)
//	GatherType     tree         binomial fan-in of packed slots
//	                            (perfmodel.UseCollectiveTree: n <= limit
//	                            and every hop eager)
//	               linear       fan-in to the root (otherwise)
//	GathervType    linear       fan-in to the root (slots are irregular)
//	ScattervType   linear       fan-out from the root
//	AllgatherType  two-level    fan-in to node leaders, the leaders' ring
//	                            of node blocks, fan-out (hierarchical
//	                            machines, each node one run of ranks)
//	               packed ring  ring of packed slots (n > limit, > 2
//	                            ranks, slots not FusedDstSafe)
//	               ring         ring of the slot layouts (otherwise)
//
// Each walk is written once: treeLinks places a rank in the binomial
// tree, ring runs the ring of typed legs, fan the linear fan-in and
// fan-out, and typedPlan and collSlots check every collective's
// arguments before the first leg moves.

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

// collSlots is the slot layout of a collective that lands one slot
// per rank in b: rank r's slot is count instances of ty starting at
// instance r*count (MPI's equal-count rule) or, under the v rule,
// counts[r] instances at displs[r] extents of ty.
type collSlots struct {
	b              buf.Block
	ty             *datatype.Type
	count          int
	v              bool
	counts, displs []int
}

// place returns rank r's slot as a byte offset and an instance count.
func (s *collSlots) place(r int) (int64, int) {
	if s.v {
		return int64(s.displs[r]) * s.ty.Extent(), s.counts[r]
	}
	return int64(r) * int64(s.count) * s.ty.Extent(), s.count
}

// view returns rank r's slot as a view running from its offset to the
// end of b, and its count.
func (s *collSlots) view(r int) (buf.Block, int) {
	off, n := s.place(r)
	return s.b.Slice(int(off), s.b.Len()-int(off)), n
}

// check is the one slot check: every slot must fit b, and the calling
// rank's own slot must pack to exactly own bytes, the leg it moves
// itself. All of it runs before the first leg moves, so a short buffer
// fails locally instead of mid-protocol. It returns the own slot's
// plan; what names the collective for the error text.
func (s *collSlots) check(c *Comm, own int64, what string) (*datatype.Plan, error) {
	if s.v && (len(s.counts) != c.size || len(s.displs) != c.size) {
		return nil, fmt.Errorf("%w: %s needs %d counts and displacements, have %d/%d",
			ErrCount, what, c.size, len(s.counts), len(s.displs))
	}
	if err := checkCount(s.count, s.ty); err != nil {
		return nil, err
	}
	for r := 0; r < c.size; r++ {
		off, n := s.place(r)
		if err := checkCount(n, s.ty); err != nil {
			return nil, err
		}
		if need := typedSpan(s.ty, n); off < 0 || off+need > int64(s.b.Len()) {
			return nil, fmt.Errorf("%w: %s needs %d bytes at offset %d, buffer has %d",
				ErrTruncate, what, need, off, s.b.Len())
		}
	}
	_, n := s.place(c.rank)
	plan, err := s.ty.CompilePlan(n)
	if err != nil {
		return nil, err
	}
	if plan.Bytes() != own {
		return nil, fmt.Errorf("%w: %s slot holds %d bytes, the leg moves %d", ErrTruncate, what, plan.Bytes(), own)
	}
	return plan, nil
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
		return c.startAsyncSend(asyncOp{kind: opSendContig, b: w, peer: dest, tag: collTag, leg: leg})
	}
	return c.startAsyncSend(asyncOp{kind: opSendFused, b: view, count: count, ty: ty, peer: dest, tag: collTag, leg: leg})
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
	n := min(sp.Bytes(), dp.Bytes())
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

// treeLinks places relative rank rel in the binomial tree over n ranks
// rooted at relative rank 0: parent is rel with its lowest set bit
// cleared (-1 at the root), and kids has bit m set for every child
// rel+m, one per power of two below rel's subtree span. Every
// binomial schedule walks the tree through it.
func treeLinks(rel, n int) (parent, kids int) {
	parent = rel &^ (rel & -rel)
	if rel == 0 {
		parent = -1
	}
	return parent, 1<<bits.Len(uint(subtreeSpan(rel, n)-1)) - 1
}

// subtreeSpan returns how many ranks the binomial subtree rooted at
// relative rank rel holds in an n-rank tree: rel's lowest set bit, cut
// at the end of the tree (the root's subtree is the whole tree).
func subtreeSpan(rel, n int) int {
	if rel == 0 {
		return n
	}
	return min(rel&-rel, n-rel)
}

// treeRelay is the binomial broadcast relay at relative rank rel of an
// n-rank tree whose relative ranks abs maps to communicator ranks: the
// layout arrives from the parent and leaves for the children, largest
// subtree first.
func (c *Comm) treeRelay(b buf.Block, count int, ty *datatype.Type, rel, n int, abs func(int) int) error {
	parent, kids := treeLinks(rel, n)
	if parent >= 0 {
		if err := c.collRecv(b, count, ty, abs(parent), "tree-parent"); err != nil {
			return err
		}
	}
	for kids != 0 {
		m := 1 << (bits.Len(uint(kids)) - 1)
		kids &^= m
		if err := c.collSend(b, count, ty, abs(rel+m), "tree-child"); err != nil {
			return err
		}
	}
	return nil
}

// ring runs the n-1 steps of the ring allgather at position pos of n:
// step k forwards the block that originated k positions upstream to
// right and receives the next one upstream from left. block(i) is
// position i's view and count of ty.
func (c *Comm) ring(n, pos, right, left int, ty *datatype.Type, block func(i int) (buf.Block, int)) error {
	for k := 0; k < n-1; k++ {
		sv, sn := block((pos - k + n) % n)
		req := c.collIsend(sv, sn, ty, right, "ring-send")
		rv, rn := block((pos - k - 1 + n) % n)
		if err := c.collRecv(rv, rn, ty, left, "ring-recv"); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// fan is the linear fan at its hub, the calling rank: one leg per rank
// of peers, in order, moving slot(r) with move — collSend for a
// fan-out, collRecv for a fan-in — under the leg label leg. The hub's
// own entry runs self on its slot instead, or nothing when self is
// nil (the slot is already in place).
func (c *Comm) fan(peers []int, move func(*Comm, buf.Block, int, *datatype.Type, int, string) error,
	ty *datatype.Type, leg string, slot func(int) (buf.Block, int), self func(buf.Block, int) error) error {
	for _, r := range peers {
		view, n := slot(r)
		var err error
		if r != c.rank {
			err = move(c, view, n, ty, r, leg)
		} else if self != nil {
			err = self(view, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ranks lists the communicator's ranks in order: the peers of a rooted
// collective's linear fan.
func (c *Comm) ranks() []int {
	r := make([]int, c.size)
	for i := range r {
		r[i] = i
	}
	return r
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
	plan, err := typedPlan(b, count, ty)
	if err != nil || c.size == 1 {
		return err
	}
	if g := c.twoLevel(); g != nil {
		return c.bcastTwoLevel(b, count, ty, root, g)
	}
	if c.size > 2 && plan.Bytes() > c.prof.CollectiveTreeLimit() {
		// Dense layouts keep the tree of raw contiguous hops; the
		// scatter+allgather win is the relay's pack passes, which a
		// dense relay does not pay.
		if _, dense := plan.ContigWindow(); !dense {
			return c.bcastPipelined(b, root, plan)
		}
	}
	return c.treeRelay(b, count, ty, (c.rank-root+c.size)%c.size, c.size, func(r int) int { return (r + root) % c.size })
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
	sp, err := typedPlan(send, sendCount, sendTy)
	if err != nil {
		return err
	}
	slots := collSlots{b: recv, ty: recvTy, count: recvCount}
	if c.rank == root {
		if _, err := slots.check(c, sp.Bytes(), "gather"); err != nil {
			return err
		}
	}
	self := func(view buf.Block, n int) error { return c.typedSelfCopy(send, sendCount, sendTy, view, n, recvTy) }
	switch {
	case c.size == 1:
		return self(slots.view(0))
	case c.prof.UseCollectiveTree(c.size, sp.Bytes()):
		return c.gatherTree(send, sendCount, sendTy, sp, slots.view, recvTy, root, self)
	case c.rank != root:
		return c.collSend(send, sendCount, sendTy, root, "fan-in")
	}
	return c.fan(c.ranks(), (*Comm).collRecv, recvTy, "fan-in", slots.view, self)
}

// gatherTree is the binomial fan-in for small typed gathers: every
// rank packs its contribution once (compiled), subtree blocks combine
// in ⌈log₂ p⌉ rounds of contiguous sends, and the root unpacks each
// remote slot into its receive layout. The root's own contribution
// still goes straight into the receive layout through self, a fused
// copy, and never touches the packed scratch.
func (c *Comm) gatherTree(send buf.Block, sendCount int, sendTy *datatype.Type, sp *datatype.Plan,
	slot func(int) (buf.Block, int), recvTy *datatype.Type, root int, self func(buf.Block, int) error) error {
	n := sp.Bytes()
	rel := (c.rank - root + c.size) % c.size
	abs := func(r int) int { return (r + root) % c.size }
	span := int64(subtreeSpan(rel, c.size))
	scratch := c.transitAlloc(send, span*n)
	defer buf.PutPooled(scratch)
	if rel != 0 {
		// Pack my own contribution into slot 0 of the scratch.
		st := sendTy.Stats(sendCount)
		c.clock.Advance(vclock.FromSeconds(c.cache.GatherCost(send.Region(), scratch.Region(), st, genericCompiled)))
		if err := sp.PackRange(send, scratch.Slice(0, int(n)), 0, n); err != nil {
			return err
		}
	}
	// Take in the children's subtree blocks, smallest first, then
	// forward mine to the parent.
	parent, kids := treeLinks(rel, c.size)
	for ; kids != 0; kids &= kids - 1 {
		m := kids & -kids
		dst := scratch.Slice(int(int64(m)*n), int(int64(subtreeSpan(rel+m, c.size))*n))
		if err := c.crecv(dst, abs(rel+m)); err != nil {
			return err
		}
	}
	if parent >= 0 {
		return c.csend(scratch.Slice(0, int(span*n)), abs(parent))
	}
	// Root: unpack every remote slot, fuse its own.
	_, recvCount := slot(root)
	rp, err := recvTy.CompilePlan(recvCount)
	if err != nil {
		return err
	}
	rst := recvTy.Stats(recvCount)
	for q := 1; q < c.size; q++ {
		view, _ := slot(abs(q))
		c.clock.Advance(vclock.FromSeconds(c.cache.ScatterCost(scratch.Region(), view.Region(), rst, genericCompiled)))
		if err := rp.UnpackRange(scratch.Slice(int(int64(q)*n), int(n)), view, 0, n); err != nil {
			return err
		}
		datatype.RecordStagedTransfer(n)
	}
	return self(slot(root))
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
	sp, err := typedPlan(send, sendCount, sendTy)
	if err != nil {
		return err
	}
	if c.rank != root {
		return c.collSend(send, sendCount, sendTy, root, "fan-in")
	}
	slots := collSlots{b: recv, ty: recvTy, v: true, counts: recvCounts, displs: displs}
	if _, err := slots.check(c, sp.Bytes(), "gatherv"); err != nil {
		return err
	}
	return c.fan(c.ranks(), (*Comm).collRecv, recvTy, "fan-in", slots.view, func(view buf.Block, n int) error {
		return c.typedSelfCopy(send, sendCount, sendTy, view, n, recvTy)
	})
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
	rp, err := typedPlan(recv, recvCount, recvTy)
	if err != nil {
		return err
	}
	if c.rank != root {
		return c.collRecv(recv, recvCount, recvTy, root, "fan-out")
	}
	slots := collSlots{b: send, ty: sendTy, v: true, counts: sendCounts, displs: displs}
	if _, err := slots.check(c, rp.Bytes(), "scatterv"); err != nil {
		return err
	}
	return c.fan(c.ranks(), (*Comm).collSend, sendTy, "fan-out", slots.view, func(view buf.Block, n int) error {
		return c.typedSelfCopy(view, n, sendTy, recv, recvCount, recvTy)
	})
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
	sp, err := typedPlan(send, sendCount, sendTy)
	if err != nil {
		return err
	}
	slots := collSlots{b: recv, ty: recvTy, count: recvCount}
	rp, err := slots.check(c, sp.Bytes(), "allgather")
	if err != nil {
		return err
	}
	own, n := slots.view(c.rank)
	if err := c.typedSelfCopy(send, sendCount, sendTy, own, n, recvTy); err != nil || c.size == 1 {
		return err
	}
	if g := c.twoLevel(); g != nil && g.contig {
		return c.allgatherTwoLevel(send, sendCount, sendTy, slots.view, recvTy, g)
	}
	if c.size > 2 && rp.Bytes() > c.prof.CollectiveTreeLimit() && !rp.FusedDstSafe() {
		// Large slots the fused engine cannot scatter into (overlapping
		// repeated instances — the extent-resized halo slots) would
		// stage a pack+unpack at every hop of the typed ring; the
		// packed-segment ring packs once and streams each hop through
		// the pipelined chunk engine instead.
		return c.allgatherPipelined(send, sendCount, sendTy, slots.view, recvTy, sp, rp)
	}
	return c.ring(c.size, c.rank, (c.rank+1)%c.size, (c.rank-1+c.size)%c.size, recvTy, slots.view)
}
