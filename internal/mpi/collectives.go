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
