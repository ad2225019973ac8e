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
	rootGrp := g.index[root]
	leader := func(gi int) int {
		if gi == rootGrp {
			return root
		}
		return g.groups[gi][0]
	}
	myGrp := g.index[c.rank]
	myLeader := leader(myGrp)
	if c.rank != myLeader {
		return c.collRecv(b, count, ty, myLeader, "intra-fan")
	}
	// Binomial tree over the leaders, rooted at the root's node.
	nL := len(g.groups)
	rel := (myGrp - rootGrp + nL) % nL
	abs := func(r int) int { return leader((r + rootGrp) % nL) }
	mask := 1
	for mask < nL {
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
		if rel&mask == 0 && rel+mask < nL {
			if err := c.collSend(b, count, ty, abs(rel+mask), "tree-child"); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	// Intra-node fan to the rest of my node.
	for _, r := range g.groups[myGrp] {
		if r == myLeader {
			continue
		}
		if err := c.collSend(b, count, ty, r, "intra-fan"); err != nil {
			return err
		}
	}
	return nil
}

// allgatherTwoLevel runs the gather-to-leader → leader ring → leader
// fan schedule. The caller has validated every slot, fused the own
// contribution into the own slot, and checked g.contig.
func (c *Comm) allgatherTwoLevel(send buf.Block, sendCount int, sendTy *datatype.Type, recv buf.Block, recvCount int, recvTy *datatype.Type, g *nodeGroups) error {
	myGrp := g.index[c.rank]
	grp := g.groups[myGrp]
	leader := grp[0]
	// The whole gathered surface as one typed view — the leader fans
	// it back in a single leg. Its span equals the last slot's
	// requirement, which the caller validated.
	full, err := collSlotView(recv, 0, c.size*recvCount, recvTy, "allgather")
	if err != nil {
		return err
	}
	if c.rank != leader {
		if err := c.collSend(send, sendCount, sendTy, leader, "intra-gather"); err != nil {
			return err
		}
		return c.collRecv(full, c.size*recvCount, recvTy, leader, "leader-fan")
	}
	// Gather the node's contributions into their rank slots.
	for _, r := range grp {
		if r == leader {
			continue
		}
		view, err := collSlotView(recv, collSlotOff(r, recvCount, recvTy), recvCount, recvTy, "allgather")
		if err != nil {
			return err
		}
		if err := c.collRecv(view, recvCount, recvTy, r, "intra-gather"); err != nil {
			return err
		}
	}
	// Ring over the leaders: step k forwards the node block that
	// originated k hops upstream. Each block is the node's contiguous
	// run of rank slots as one typed view.
	nL := len(g.groups)
	block := func(gi int) (buf.Block, int, error) {
		members := g.groups[gi]
		n := len(members) * recvCount
		v, err := collSlotView(recv, collSlotOff(members[0], recvCount, recvTy), n, recvTy, "allgather")
		return v, n, err
	}
	right := g.groups[(myGrp+1)%nL][0]
	left := g.groups[(myGrp-1+nL)%nL][0]
	blk := myGrp
	for k := 0; k < nL-1; k++ {
		sv, sn, err := block(blk)
		if err != nil {
			return err
		}
		req := c.collIsend(sv, sn, recvTy, right, "ring-send")
		blk = (blk - 1 + nL) % nL
		rv, rn, err := block(blk)
		if err != nil {
			return err
		}
		if err := c.collRecv(rv, rn, recvTy, left, "ring-recv"); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
	}
	// Fan the gathered surface to the rest of my node.
	for _, r := range grp {
		if r == leader {
			continue
		}
		if err := c.collSend(full, c.size*recvCount, recvTy, r, "leader-fan"); err != nil {
			return err
		}
	}
	return nil
}
