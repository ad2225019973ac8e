package mpi

// Node topology helpers: the simulated machine groups blocks of
// Mem.NodeSize consecutive world ranks into nodes (see
// memsim.Hierarchy.NodeSize). The point-to-point transport charges the
// profile's IntraNodeLatency for hops that stay inside a node, and the
// typed collectives switch to two-level (leader tree / leader ring)
// topologies keyed off the same boundary — see collectives_hier.go.

// nodeSize returns the ranks-per-node granularity, 0 for a flat
// machine (NodeSize unset or 1). It does not look at the intra-node
// latency: linkLatency and groupByNode check for that discount
// themselves.
func (c *Comm) nodeSize() int {
	ns := c.prof.Mem.NodeSize
	if ns <= 1 {
		return 0
	}
	return ns
}

// nodeOf returns the node index of a communicator rank, mapping
// through the communicator's members to world endpoints — the machine
// boundary is physical, so a Split communicator's scattered members
// land on their true nodes.
func (c *Comm) nodeOf(rank int) int {
	ns := c.nodeSize()
	if ns == 0 {
		return 0
	}
	return c.endpoint(rank) / ns
}

// sameNode reports whether two communicator ranks share a node.
func (c *Comm) sameNode(a, b int) bool {
	return c.nodeSize() != 0 && c.nodeOf(a) == c.nodeOf(b)
}

// linkLatency is the one-way small-message latency from this rank to
// peer: the shared-memory hop when both sit on one node and the
// profile grants the discount, the wire NetLatency otherwise.
func (c *Comm) linkLatency(peer int) float64 {
	if c.prof.IntraNodeLatency > 0 && c.sameNode(c.rank, peer) {
		return c.prof.IntraNodeLatency
	}
	return c.prof.NetLatency
}
