package mpi

import (
	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
)

// Two-level collective topologies for hierarchical machines. When the
// profile declares a node granularity (memsim.Hierarchy.NodeSize) and
// an intra-node latency discount (perfmodel.Profile.IntraNodeLatency),
// the typed broadcast and allgather switch from their flat schedules
// to node-aware ones:
//
//   - bcastTwoLevel: a binomial tree spanning one leader per node
//     (wire hops), then each leader fans the payload to its node-local
//     members over the cheap intra-node links. The root acts as its
//     own node's leader, so the payload enters the leader tree with no
//     staging hop.
//   - allgatherTwoLevel: members gather their contributions to the
//     node leader (intra-node), the leaders run the ring exchanging
//     whole node slot-blocks (each block is the node's contiguous run
//     of rank slots, so it travels as one typed leg), and each leader
//     fans the fully gathered buffer back to its members. The ring
//     crosses the wire ⌈p/NodeSize⌉−1 times per block instead of p−1.
//
// Every leg rides the same collSend/collRecv engines as the flat
// schedules, so the payload bytes that land are identical — only the
// routing changes. The allgather block exchange additionally needs
// each node's communicator ranks to be one consecutive run (so its
// slots form one contiguous typed view); scattered Split communicators
// fall back to the flat ring.

// nodeGroups is a communicator's membership grouped by machine node,
// groups ordered by their lowest communicator rank.
type nodeGroups struct {
	groups [][]int // comm ranks per node, ascending
	index  []int   // group index per comm rank
	contig bool    // every group is one consecutive run of comm ranks
}

// twoLevel returns the node grouping when the two-level topologies
// apply, nil otherwise. The grouping depends only on the profile and
// the membership, so it is built once per communicator: by Run for the
// world (one immutable value shared by all ranks), here on first use
// for a Split child.
func (c *Comm) twoLevel() *nodeGroups {
	if !c.nodesBuilt {
		c.nodes, c.nodesBuilt = groupByNode(c.prof, c.size, c.members), true
	}
	return c.nodes
}

// groupByNode groups a communicator of the given size (members maps
// its ranks to world endpoints, nil = identity) by machine node. It
// returns nil unless the two-level topologies apply: a node granularity
// is declared, the intra-node discount exists (otherwise the hierarchy
// buys nothing), the communicator spans at least two nodes, and at
// least one node holds more than one member (all-singleton grouping is
// the flat topology already).
func groupByNode(prof *perfmodel.Profile, size int, members []int) *nodeGroups {
	ns := prof.Mem.NodeSize
	if ns <= 1 || prof.IntraNodeLatency <= 0 || size <= 2 {
		return nil
	}
	g := &nodeGroups{index: make([]int, size), contig: true}
	byNode := make(map[int]int)
	multi := false
	for r := 0; r < size; r++ {
		node := r / ns
		if members != nil {
			node = members[r] / ns
		}
		gi, ok := byNode[node]
		if !ok {
			gi = len(g.groups)
			byNode[node] = gi
			g.groups = append(g.groups, nil)
		} else {
			multi = true
			if last := g.groups[gi][len(g.groups[gi])-1]; last != r-1 {
				g.contig = false
			}
		}
		g.groups[gi] = append(g.groups[gi], r)
		g.index[r] = gi
	}
	if len(g.groups) < 2 || !multi {
		return nil
	}
	return g
}

// bcastTwoLevel relays count instances of ty from root over the
// leader tree plus intra-node fans. The caller has validated the plan
// and handled size==1.
func (c *Comm) bcastTwoLevel(b buf.Block, count int, ty *datatype.Type, root int, g *nodeGroups) error {
	rootGrp, myGrp := g.index[root], g.index[c.rank]
	leader := func(gi int) int {
		if gi == rootGrp {
			return root
		}
		return g.groups[gi][0]
	}
	if c.rank != leader(myGrp) {
		return c.collRecv(b, count, ty, leader(myGrp), "intra-fan")
	}
	// Binomial tree over the leaders, rooted at the root's node, then
	// the fan to the rest of my node.
	nL := len(g.groups)
	if err := c.treeRelay(b, count, ty, (myGrp-rootGrp+nL)%nL, nL, func(r int) int { return leader((r + rootGrp) % nL) }); err != nil {
		return err
	}
	return c.fan(g.groups[myGrp], (*Comm).collSend, ty, "intra-fan", func(int) (buf.Block, int) { return b, count }, nil)
}

// allgatherTwoLevel runs the gather-to-leader → leader ring → leader
// fan schedule. The caller has validated every slot, fused the own
// contribution into the own slot, and checked g.contig.
func (c *Comm) allgatherTwoLevel(send buf.Block, sendCount int, sendTy *datatype.Type, slot func(int) (buf.Block, int), recvTy *datatype.Type, g *nodeGroups) error {
	myGrp := g.index[c.rank]
	grp := g.groups[myGrp]
	// The whole gathered surface is one typed view from slot 0, which
	// the leader fans back in a single leg, and each node's block of
	// consecutive slots one from its first slot. Each ends where its
	// last slot does, which the caller validated.
	full, n := slot(0)
	n *= c.size
	block := func(gi int) (buf.Block, int) {
		v, k := slot(g.groups[gi][0])
		return v, len(g.groups[gi]) * k
	}
	if c.rank != grp[0] {
		if err := c.collSend(send, sendCount, sendTy, grp[0], "intra-gather"); err != nil {
			return err
		}
		return c.collRecv(full, n, recvTy, grp[0], "leader-fan")
	}
	if err := c.fan(grp, (*Comm).collRecv, recvTy, "intra-gather", slot, nil); err != nil {
		return err
	}
	// Ring over the leaders: step k forwards the node block that
	// originated k hops upstream.
	nL := len(g.groups)
	right, left := g.groups[(myGrp+1)%nL][0], g.groups[(myGrp-1+nL)%nL][0]
	if err := c.ring(nL, myGrp, right, left, recvTy, block); err != nil {
		return err
	}
	return c.fan(grp, (*Comm).collSend, recvTy, "leader-fan", func(int) (buf.Block, int) { return full, n }, nil)
}
