package core

import (
	"math/bits"

	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// pricePointToPoint prices one transfer of the query's layout.
func pricePointToPoint(q Query) (Cost, error) {
	p := q.Profile
	n, normalized := q.Bytes, false
	var st layout.Stats
	if q.Type != nil {
		count := q.Count
		if count == 0 {
			count = 1
		}
		plan, err := q.Type.CompilePlan(count)
		if err != nil {
			return Cost{}, err
		}
		if n = q.Type.PackSize(count); n > 0 {
			st, normalized = q.Type.Stats(count), plan.Kernel() == datatype.KernelBlock
		}
	} else if n > 0 {
		var err error
		if st, err = ForBytes(n).Stats(); err != nil {
			return Cost{}, err
		}
	}
	c := Cost{Bytes: n, Ranks: 1, Workers: 1}
	if n > 0 {
		c.priceClean(st, normalized, p)
	}
	if o := q.Observed; o != nil {
		if t, ok := o.Predict(memsim.PathTypedSend, n); ok {
			c.Clean[VectorType] = t
		}
		if t, ok := o.Predict(memsim.PathPackedSend, n); ok {
			c.Clean[PackCompiled] = t
		}
	}
	c.priceFaults(p, q.Faults)
	return c, nil
}

// priceClean fills the clean point-to-point times of a layout with
// statistics st.
func (c *Cost) priceClean(st layout.Stats, normalized bool, p *perfmodel.Profile) {
	n := c.Bytes
	mem := memsim.NewState(&p.Mem)
	mem.SetDisabled(true) // steady-state estimate: cold, deterministic
	wire := p.WireTime(n)

	// The compiled pack is priced with the spec mpi.PackCompiled
	// charges a plan of this shape and size with.
	k := mpi.KernelFor(normalized, n)
	c.Workers, c.Normalized = k.Workers, normalized
	c.Clean[PackCompiled] = p.PackCallOverhead + mem.GatherCost(0, 0, st, k) + wire
	c.Clean[PackVector] = p.PackCallOverhead + mem.GatherCost(0, 0, st, memsim.Kernel{}) + wire

	// The direct datatype send interprets the type through MPI's
	// internal chunk buffers at the internally degraded bandwidth
	// (§2.3, §4.1), with per-chunk bookkeeping.
	typedWire := 0.0
	if bw := p.InternalBW(n); bw > 0 {
		typedWire = float64(n) / bw
	}
	c.Chunks = p.Chunks(n)
	c.Depth = p.PipelineDepth()
	c.Clean[VectorType] = mem.GatherCost(0, 0, st, memsim.Kernel{}) + float64(c.Chunks)*p.ChunkOverhead + typedWire
	if p.Eager(n, false) {
		return
	}

	// The pipelined typed send runs the same chunked staging, but the
	// compiled pack of chunk k+1 is modelled overlapping the injection
	// of chunk k, so the span collapses to the two-stage pipeline
	// bound. Rendezvous only: the eager path packs in one shot before
	// the envelope leaves.
	if c.Chunks > 1 {
		pipePack := mem.GatherCost(0, 0, st, memsim.Kernel{Engine: k.Engine}) + float64(c.Chunks)*p.ChunkOverhead
		c.Clean[TypedPipelined] = memsim.PipelinedChunkCost(pipePack, typedWire, c.Chunks, c.Depth)
	}

	// The fused rendezvous runs one compiled pass straight into the
	// receiver's buffer, pipelined with the wire at nominal bandwidth:
	// no staging traffic, no chunk bookkeeping, no internal-pool
	// degradation. Only available past the eager limit, where the
	// handshake exposes the destination. The pass splits across the
	// same workers as the compiled pack, as mpi charges it.
	c.Clean[Sendv] = max(wire, mem.FusedCopyCost(0, 0, st, layout.Dense(n), c.Workers))
}

// priceFaults inflates the point-to-point times by the expected
// retries and backoff of fp.
func (c *Cost) priceFaults(p *perfmodel.Profile, fp memsim.FaultProfile) {
	c.Legs = 1
	if c.Bytes > 0 && !p.Eager(c.Bytes, false) {
		c.Legs = 1 + p.Chunks(c.Bytes)
		if ch := p.Chunks(c.Bytes); ch > 1 {
			c.Repair = ch
		}
	}
	for _, s := range []Scheme{VectorType, PackCompiled, Sendv, TypedPipelined} {
		clean, resend := c.Clean[s], c.Clean[s]
		if clean <= 0 && (s == Sendv || s == TypedPipelined) {
			continue
		}
		if s == TypedPipelined {
			// A whole-transfer retry of the pipelined engine replays the
			// span serially before the modelled overlap refills, and a
			// selective one replays a chunk's share of the serial pass:
			// overlap only pays off on clean attempts.
			resend = c.Clean[VectorType]
		}
		c.WholeReplay[s] = fp.InflateTransfer(clean, resend, c.Legs)
		c.Faulty[s] = c.WholeReplay[s]
		if c.Repair > 0 && s != PackCompiled {
			c.Faulty[s] = fp.SelectiveInflateTransfer(clean, resend/float64(c.Repair), c.Repair)
		}
	}
	if c.Repair > 0 {
		c.DeliveryProb = fp.SelectiveDeliveryProb(c.Repair)
	} else {
		c.DeliveryProb = fp.TransferDeliveryProb(c.Legs)
	}
}

// priceCollective prices a ranks-rank fan collective of n-byte
// per-rank payloads of the canonical layout, then inflates each
// topology by the expected retries of fp along its recovery unit. The
// typed and packed schedules recover by whole-transfer replay per hop,
// and a binomial tree compounds them over ⌈log₂ ranks⌉
// store-and-forward hops. The packed-segment ring moves the same bytes
// in ranks-1 single-hop forwards of checksummed chunks that recover
// selectively. So as the fault rate climbs the deep tree pays retries
// the ring does not.
func priceCollective(ranks int, n int64, p *perfmodel.Profile, fp memsim.FaultProfile) (Cost, error) {
	c := Cost{Bytes: n, Ranks: ranks, Workers: 1, DeliveryProb: 1, RingDeliveryProb: 1}
	if n <= 0 {
		return c, nil
	}
	st, err := ForBytes(n).Stats()
	if err != nil {
		return Cost{}, err
	}
	mem := memsim.NewState(&p.Mem)
	mem.SetDisabled(true) // steady-state estimate: cold, deterministic
	wire := p.WireTime(n) + p.NetLatency
	over := p.SendOverhead + p.RecvOverhead
	k := mpi.KernelFor(false, n)
	c.Workers = k.Workers
	// The engine's tree rule: small legs, more than two ranks (a
	// two-rank tree is the linear fan), and every aggregated
	// store-and-forward hop still eager.
	c.Tree = p.UseCollectiveTree(ranks, n)

	selfLeg := mem.FusedCopyCost(0, 0, st, st, c.Workers)
	stagedLeg := mem.StagedCollectiveLegCost(0, 0, 0, st, st)
	if c.Tree {
		// At tree sizes the legs are eager-staged (pack, forward,
		// unpack) — the fused rendezvous needs the handshake — and
		// every hop serialises its memory pass with the wire.
		c.Clean[Sendv] = memsim.TreeFanCost(ranks, selfLeg, stagedLeg, wire, over)
	} else {
		// Linear fused fan: the remote senders' fused passes run
		// concurrently on their own ranks, and each leg lands in place
		// at the root — no root-side unpack. The root's critical path
		// is its own self leg, one pipeline fill (the first remote
		// leg's sender pass, the same fused cost as the self leg), and
		// the serialised wire.
		c.Clean[Sendv] = memsim.LinearFanCost(ranks, 2*selfLeg, 0, wire, over)
	}

	// Packed-then-collective: the per-rank packs run concurrently too,
	// but the root must unpack every remote slot itself, so the
	// per-leg term is the larger of the wire and the root-side unpack.
	unpack := mem.ScatterCost(0, 0, st, memsim.Kernel{Engine: memsim.Compiled})
	prologue := p.PackCallOverhead + mem.GatherCost(0, 0, st, k) + unpack // own pack + self-slot unpack
	if c.Tree {
		c.Clean[PackCompiled] = prologue + memsim.TreeFanCost(ranks, 0, unpack, wire, over)
	} else {
		c.Clean[PackCompiled] = prologue + memsim.LinearFanCost(ranks, 0, unpack, wire, over)
	}

	// Two-level hierarchy: with a node granularity and an intra-node
	// latency discount declared, the same fan decomposes into
	// concurrent per-node fans over the cheap links feeding a leader
	// fan whose wire legs number one per node. The intra-node stage
	// pays staged legs (eager store-and-forward at the node boundary);
	// the leader stage keeps the shape the flat engine would pick.
	c.Nodes = 1
	if ns := p.Mem.NodeSize; ns > 1 && p.IntraNodeLatency > 0 && ranks > ns {
		c.Nodes = (ranks + ns - 1) / ns
		intraWire := p.WireTime(n) + p.IntraNodeLatency
		intra := memsim.LinearFanCost(ns, selfLeg, stagedLeg, intraWire, over)
		if c.Tree {
			c.TwoLevel = intra + memsim.TreeFanCost(c.Nodes, 0, stagedLeg, wire, over)
		} else {
			c.TwoLevel = intra + memsim.LinearFanCost(c.Nodes, 0, 0, wire, over)
		}
	}

	// The ring is priced even where the clean ladder declines it (tree
	// sizes), by the same formula.
	c.RingClean = ringCost(mem, st, ranks, n, p)
	if !c.Tree {
		c.Clean[TypedPipelined] = c.RingClean
	}

	c.Depth = bits.Len(uint(ranks - 1)) // ⌈log₂ ranks⌉
	hop := wire + over
	c.Legs = 1
	if !p.Eager(n, false) {
		c.Legs = 1 + p.Chunks(n)
		if ch := p.Chunks(n); ch > 1 {
			c.Repair = ch
		}
	}
	// Critical-path hop counts per topology: the tree relays over
	// Depth store-and-forward hops; the flat fan serialises its wire
	// legs at the root.
	typedHops := ranks - 1
	if c.Tree {
		typedHops = c.Depth
	}
	c.TreeExposure = fp.DepthLossExposure(typedHops, c.Legs)
	c.RingExposure = fp.DepthLossExposure(ranks-1, c.Legs)

	// Whole-replay recovery per hop for the typed and packed
	// schedules: a faulted hop replays its full transfer.
	hopExtra := fp.InflateTransfer(hop, hop, c.Legs) - hop
	c.Faulty[Sendv] = c.Clean[Sendv] + float64(typedHops)*hopExtra
	c.Faulty[PackCompiled] = c.Clean[PackCompiled] + float64(typedHops)*hopExtra
	if c.TwoLevel > 0 {
		// Leaders relay over a ⌈log₂ nodes⌉ tree (or fan) after one
		// intra-node hop; both stages replay whole transfers.
		twoHops := 1 + bits.Len(uint(c.Nodes-1))
		c.FaultyTwoLevel = c.TwoLevel + float64(twoHops)*hopExtra
	}

	// Selective recovery per hop for the ring: the forwarded stream is
	// already chunked and checksummed, so a damaged chunk replays only
	// its own share of the hop.
	if c.Repair > 0 {
		ringHopExtra := fp.SelectiveInflateTransfer(hop, hop/float64(c.Repair), c.Repair) - hop
		c.Faulty[TypedPipelined] = c.RingClean + float64(ranks-1)*ringHopExtra
		c.RingDeliveryProb = pow(fp.SelectiveDeliveryProb(c.Repair), ranks-1)
	} else {
		c.Faulty[TypedPipelined] = c.RingClean + float64(ranks-1)*hopExtra
		c.RingDeliveryProb = pow(fp.TransferDeliveryProb(c.Legs), ranks-1)
	}
	c.DeliveryProb = pow(fp.TransferDeliveryProb(c.Legs), typedHops)
	return c, nil
}

// ringCost prices the clean pipelined packed-segment ring: one serial
// compiled pack of the contribution, then ranks-1 hops whose per-hop
// span is the chunked pipeline of the block's wire against its unpack
// (the forwarded stream is read back out at streaming rate, which the
// duplex hop hides under the receive).
func ringCost(mem *memsim.State, st layout.Stats, ranks int, n int64, p *perfmodel.Profile) float64 {
	k := memsim.Kernel{Engine: memsim.Compiled}
	wire := p.WireTime(n) + p.NetLatency
	over := p.SendOverhead + p.RecvOverhead
	hop := memsim.PipelinedChunkCost(wire, mem.ScatterCost(0, 0, st, k), p.Chunks(n), p.PipelineDepth())
	return mem.GatherCost(0, 0, st, k) + float64(ranks-1)*(over+hop)
}

// pow is x^k for small non-negative integer k.
func pow(x float64, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= x
	}
	return r
}
