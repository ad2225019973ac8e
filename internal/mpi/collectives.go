package mpi

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/buf"
	"repro/internal/elem"
	"repro/internal/vclock"
)

// collTag is the reserved tag for collective-internal traffic. User
// tags are non-negative, so collective messages can never be matched
// by user receives; MPI's same-order-on-all-ranks rule for collectives
// makes a single tag sufficient.
const collTag = -2

// csend/crecv are the unvalidated internal p2p used by collective
// algorithms.
func (c *Comm) csend(b buf.Block, dest int) error {
	return c.sendContig(b, dest, collTag, sendFlags{})
}

func (c *Comm) crecv(b buf.Block, src int) error {
	_, err := c.recvContig(b, src, collTag)
	return err
}

// Barrier blocks until all ranks of the communicator arrive, like
// MPI_Barrier. Virtual time resumes at the latest arrival plus a
// dissemination-pattern cost of ⌈log₂ n⌉ latencies.
func (c *Comm) Barrier() {
	c.groupSync()
	if c.size > 1 {
		rounds := math.Ceil(math.Log2(float64(c.size)))
		c.clock.Advance(vclock.FromSeconds(rounds * (c.prof.NetLatency + c.prof.SendOverhead)))
	}
}

// Bcast broadcasts root's buffer to all ranks over a binomial tree,
// like MPI_Bcast. It is a thin wrapper over BcastType with a
// datatype.Contiguous layout; dense legs ride the raw contiguous
// protocol paths unchanged.
func (c *Comm) Bcast(b buf.Block, root int) error {
	count, ty, err := contigView(b.Len())
	if err != nil {
		return err
	}
	return c.BcastType(b, count, ty, root)
}

// Op is a reduction operator over float64 element slices: it folds in
// into acc element-wise.
type Op func(acc, in []float64)

// Predefined reduction operators, the analogues of MPI_SUM, MPI_MAX,
// MPI_MIN and MPI_PROD over MPI_DOUBLE.
var (
	OpSum Op = func(acc, in []float64) {
		for i := range acc {
			acc[i] += in[i]
		}
	}
	OpMax Op = func(acc, in []float64) {
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	}
	OpMin Op = func(acc, in []float64) {
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	}
	OpProd Op = func(acc, in []float64) {
		for i := range acc {
			acc[i] *= in[i]
		}
	}
)

// Reduce folds every rank's send buffer of count float64s into recv at
// the root over a binomial tree, like MPI_Reduce on MPI_DOUBLE.
func (c *Comm) Reduce(send, recv buf.Block, count int, op Op, root int) error {
	return c.collErr("Reduce", c.reduce(send, recv, count, op, root))
}

func (c *Comm) reduce(send, recv buf.Block, count int, op Op, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	n := count * elem.Float64Size
	acc := elem.ToFloat64s(send.Slice(0, n))
	// Merge scratch: pooled, fully received before each read.
	tmpBlock := buf.GetPooledFor(c.rank, n)
	defer buf.PutPooled(tmpBlock)
	rel := (c.rank - root + c.size) % c.size
	abs := func(r int) int { return (r + root) % c.size }
	// Charge the local combine: one pass over the operands per merge.
	combineCost := func() float64 {
		return float64(n) / c.prof.Mem.CopyBW
	}
	for mask := 1; mask < c.size; mask <<= 1 {
		if rel&mask != 0 {
			peer := abs(rel - mask)
			out := elem.Float64s(acc)
			if err := c.csend(out, peer); err != nil {
				return err
			}
			return nil // contributed and done
		}
		peer := rel | mask
		if peer < c.size {
			if err := c.crecv(tmpBlock, abs(peer)); err != nil {
				return err
			}
			op(acc, elem.ToFloat64s(tmpBlock))
			c.clock.Advance(vclock.FromSeconds(combineCost()))
		}
	}
	if c.rank == root {
		for i, v := range acc {
			elem.PutFloat64(recv, i, v)
		}
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast, like a simple
// MPI_Allreduce.
func (c *Comm) Allreduce(send, recv buf.Block, count int, op Op) error {
	if err := c.Reduce(send, recv, count, op, 0); err != nil {
		return err
	}
	return c.Bcast(recv.Slice(0, count*elem.Float64Size), 0)
}

// Gather concentrates equal-sized contributions at the root in rank
// order, like MPI_Gather. recv is only read at the root and must hold
// size*send.Len() bytes. It is a thin wrapper over GatherType with a
// datatype.Contiguous layout.
func (c *Comm) Gather(send buf.Block, recv buf.Block, root int) error {
	count, ty, err := contigView(send.Len())
	if err != nil {
		return err
	}
	return c.GatherType(send, count, ty, recv, count, ty, root)
}

// Scatter distributes equal slices of the root's buffer, like
// MPI_Scatter. send is only read at the root; each rank receives
// recv.Len() bytes. It is a thin wrapper over ScatterType with a
// datatype.Contiguous layout.
func (c *Comm) Scatter(send buf.Block, recv buf.Block, root int) error {
	count, ty, err := contigView(recv.Len())
	if err != nil {
		return err
	}
	return c.ScatterType(send, count, ty, recv, count, ty, root)
}

// Allgather concentrates every rank's contribution at every rank using
// the ring algorithm, like MPI_Allgather. recv must hold
// size*send.Len() bytes; slot r receives rank r's contribution. It is
// a thin wrapper over AllgatherType with a datatype.Contiguous layout.
func (c *Comm) Allgather(send buf.Block, recv buf.Block) error {
	count, ty, err := contigView(send.Len())
	if err != nil {
		return err
	}
	return c.AllgatherType(send, count, ty, recv, count, ty)
}

// Alltoall exchanges the r-th slice of send with rank r, like
// MPI_Alltoall with equal block sizes. send and recv hold size blocks
// of blockLen bytes each. It is a thin wrapper over AlltoallType with
// a datatype.Contiguous layout.
func (c *Comm) Alltoall(send, recv buf.Block, blockLen int) error {
	count, ty, err := contigView(blockLen)
	if err != nil {
		return err
	}
	return c.AlltoallType(send, count, ty, recv, count, ty)
}

// Scan computes the inclusive prefix reduction over ranks, like
// MPI_Scan on MPI_DOUBLE: rank r receives op-fold of ranks 0..r.
func (c *Comm) Scan(send, recv buf.Block, count int, op Op) error {
	return c.collErr("Scan", c.scan(send, recv, count, op))
}

func (c *Comm) scan(send, recv buf.Block, count int, op Op) error {
	if count < 0 {
		return errNegativeCount(count)
	}
	n := count * elem.Float64Size
	acc := elem.ToFloat64s(send.Slice(0, n))
	if c.rank > 0 {
		prev := buf.GetPooledFor(c.rank, n)
		// acc aliases prev below, and sends copy before returning, so
		// the release can wait for function exit.
		defer buf.PutPooled(prev)
		if err := c.crecv(prev, c.rank-1); err != nil {
			return err
		}
		upstream := elem.ToFloat64s(prev)
		op(upstream, acc)
		acc = upstream
	}
	if c.rank < c.size-1 {
		if err := c.csend(elem.Float64s(acc), c.rank+1); err != nil {
			return err
		}
	}
	for i, v := range acc {
		elem.PutFloat64(recv, i, v)
	}
	return nil
}

// Split partitions the communicator by color, ordering ranks within
// each new communicator by key then by old rank, like MPI_Comm_split.
// It is collective over the parent communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) pairs via Allgather.
	mine := buf.Alloc(16)
	elem.PutInt64(mine, 0, int64(color))
	elem.PutInt64(mine, 1, int64(key))
	all := buf.Alloc(16 * c.size)
	if err := c.Allgather(mine, all); err != nil {
		return nil, err
	}
	// One pass over the exchanged table keeps only what this rank
	// needs: the sorted distinct colors (they number the new contexts)
	// and its own color's members, in old-rank order.
	type member struct{ key, rank int }
	var distinct []int
	var group []member
	for r := 0; r < c.size; r++ {
		col := int(elem.Int64(all, 2*r))
		if i, found := slices.BinarySearch(distinct, col); !found {
			distinct = slices.Insert(distinct, i, col)
		}
		if col == color {
			group = append(group, member{key: int(elem.Int64(all, 2*r+1)), rank: r})
		}
	}
	// Rank 0 allocates a contiguous ctx block, one per distinct color,
	// and broadcasts the base.
	base := buf.Alloc(8)
	if c.rank == 0 {
		elem.PutInt64(base, 0, int64(c.fabric.AllocCtxBlock(len(distinct))))
	}
	if err := c.Bcast(base, 0); err != nil {
		return nil, err
	}
	ctxBase := int(elem.Int64(base, 0))
	colorIdx, _ := slices.BinarySearch(distinct, color)

	// My group, ordered by (key, old rank).
	slices.SortStableFunc(group, func(a, b member) int { return cmp.Compare(a.key, b.key) })
	newMembers := make([]int, len(group))
	newRank := -1
	for i, m := range group {
		newMembers[i] = c.endpoint(m.rank)
		if m.rank == c.rank {
			newRank = i
		}
	}
	// The child shares the rank's clock and everything in the parent's
	// core but the identity and the node grouping (built on first use).
	core := *c.commCore
	core.rank, core.size, core.ctx, core.members = newRank, len(group), ctxBase+colorIdx, newMembers
	core.nodes, core.nodesBuilt = nil, false
	nc := &Comm{commCore: &core, clock: c.clock}
	// Materialise the group's sync object before anyone uses it.
	c.fabric.GroupFor(nc.ctx, nc.size)
	return nc, nil
}
